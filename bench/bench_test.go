package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// toy keeps every workload to a few seconds: 4 batches per run, a
// fraction of a second of serving, 2 ms per micro-benchmark.
var toy = sizes{timed: 4, traced: 4, check: 3, base: 2, micro: 2 * time.Millisecond, reps: 1, quiet: 100 * time.Millisecond}

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics asserts that got holds exactly the metrics want names, each
// with the contract's unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case g.Unit != m.Unit || g.Unit == "":
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
}

// TestToyRuns drives every workload through both invocations at toy size:
// the timed run emits every end-to-end metric, the traced run every
// per-layer metric, the span file is well formed, and the decorators leave
// the final state where the untraced run leaves it (tracedRun's own gate).
func TestToyRuns(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		// The frozen rates are sized for the reference host at full speed; a
		// toy run under -race or on a loaded CI host must not overflow the
		// open-loop backlog, which would count as failed queries.
		w.qps = 50
		t.Run(w.name, func(t *testing.T) {
			timed, err := timedRun(&w, 7, toy)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted < 1 {
				t.Errorf("timed run: correct=%v attempted=%d failed=%d violations=%v", timed.Correct, timed.Attempted, timed.Failed, timed.violations)
			}
			checkMetrics(t, timed.Metrics, c.EndToEnd)

			dir := t.TempDir()
			traced, err := tracedRun(&w, 7, toy, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d violations=%v", traced.Correct, traced.Failed, traced.violations)
			}
			checkMetrics(t, traced.Metrics, c.PerLayer)

			b, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			roots := 0
			for i, s := range spans {
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", i, s.Name)
				}
				if s.Parent == -1 {
					if s.Name == spanIter {
						roots++
					}
					continue
				}
				if s.Parent < 0 || s.Parent >= len(spans) || s.Parent == i {
					t.Fatalf("span %d (%s) has parent %d of %d spans", i, s.Name, s.Parent, len(spans))
				}
				p := spans[s.Parent]
				if p.Trainer != s.Trainer || p.Iter != s.Iter {
					t.Errorf("span %d (%s) is (%d,%d) under a parent that is (%d,%d)", i, s.Name, s.Trainer, s.Iter, p.Trainer, p.Iter)
				}
			}
			if roots == 0 {
				t.Error("no train.iter root span recorded")
			}
			for i, d := range selfTimes(spans) {
				if d < 0 {
					t.Errorf("span %d (%s) has negative self time %d", i, spans[i].Name, d)
				}
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanIter, Start: 0, End: 100, Parent: -1},
		{Name: spanFetch, Start: 10, End: 30, Parent: 0},
		{Name: spanWrite, Start: 20, End: 50, Parent: 0},  // overlaps the fetch: covered once
		{Name: spanWrite, Start: 90, End: 120, Parent: 0}, // clipped at the parent's end
	}
	if got := selfTimes(spans)[0]; got != 100-40-10 {
		t.Errorf("root self time %d, want 50", got)
	}
}
