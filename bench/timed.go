package main

import (
	"fmt"
	"time"

	"bagpipe/internal/embed"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation hands back: the last-line JSON object of the
// benchmark contract, plus the facts the all-workloads mode cross-checks.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	fingerprint uint64
	violations  []string
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// gates applies the correctness checks every full run must pass.
func (r *report) gates(name string, o *outcome, batches int) {
	if !o.audit.Clean() {
		r.violate("%s: serving audit not clean: %v", name, o.audit)
	}
	if o.retries != 0 || o.failovers != 0 {
		r.violate("%s: tier retries %d, failovers %d, want 0", name, o.retries, o.failovers)
	}
	if o.dropped != 0 {
		r.violate("%s: mesh dropped %d messages, want 0", name, o.dropped)
	}
	if o.res.Iters != batches {
		r.violate("%s: trained %d of %d iterations", name, o.res.Iters, batches)
	}
	if l := o.load; l != nil && l.failed() != 0 {
		r.violate("%s: %d of %d queries failed (rate shed %d, tier shed %d, other %d)",
			name, l.failed(), l.issued, l.rateShed, l.tierShed, l.other)
	}
}

// count folds a run's operations into attempted/failed: one per training
// iteration, one per query offered.
func (r *report) count(o *outcome, batches int) {
	r.Attempted += int64(batches)
	r.Failed += int64(batches - o.res.Iters)
	if o.load != nil {
		r.Attempted += o.load.issued
		r.Failed += o.load.failed()
	}
}

func (r *report) finish() {
	r.Correct = len(r.violations) == 0
	if !r.Correct {
		r.Failed = r.Attempted // a run that fails a gate counts nothing as done
	}
}

// sizes is the work one invocation does. sizesFor derives it from --seconds;
// the harness's own test passes toy values.
type sizes struct {
	timed  int           // batches of the timed run
	traced int           // batches of the traced run and its untraced twin
	check  int           // batches of each set-up/differential run
	base   int           // batches of the baseline run on the workload's fabric
	micro  time.Duration // time budget of each replay micro-benchmark
	reps   int           // scales the micro-benchmarks that run a fixed count, not a budget
	quiet  time.Duration // serving time after training on workloads without serveLive (any positive value serves live on the others)
}

func sizesFor(w *workload, seconds int) sizes {
	return sizes{
		timed: w.timedBatches(seconds),
		// A quarter of the timed run's measured work: shorten traced runs
		// first, never timed ones.
		traced: warmupIters + max(lookAhead, seconds*w.batchesPerSec/4),
		check:  checkIters,
		base:   warmupIters,
		micro:  100 * time.Millisecond,
		reps:   8,
		quiet:  quietServe,
	}
}

// timedRun is the untraced invocation: the end-to-end metrics.
//
// The timed run goes first, in a process that has done nothing else, so
// peak_rss_mb (read the moment it ends) and its set-up sample are the
// workload's own. Two more set-ups follow, each a complete short run of
// checkIters batches whose final state must equal, bit for bit, the plain
// no-cache RunBaseline over an in-process server: they are both the
// differential check and the remaining setup_s samples.
func timedRun(w *workload, seed uint64, sz sizes) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	batches := sz.timed

	main, err := runOnce(w, seed, batches, nil, sz.quiet)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.fingerprint = main.fingerprint
	rep.gates(w.name, main, batches)
	rep.count(main, batches)
	if main.load == nil || main.load.served == 0 {
		return nil, fmt.Errorf("%s: the timed run served no query", w.name)
	}

	setups := []float64{main.setup.Seconds()}
	var checks []*outcome
	for i := 0; i < 2; i++ {
		o, err := runOnce(w, seed, sz.check, nil, 0)
		if err != nil {
			return nil, err
		}
		rep.gates(w.name+" check run", o, sz.check)
		setups = append(setups, o.setup.Seconds())
		checks = append(checks, o)
	}
	base, baseFP, err := baselineInProcess(w, seed, sz.check)
	if err != nil {
		return nil, err
	}
	for _, o := range checks {
		if o.fingerprint != baseFP {
			rep.violate("%s: %d-batch fingerprint %016x differs from the no-cache baseline's %016x", w.name, sz.check, o.fingerprint, baseFP)
		}
		if o.res.LastLoss != base.LastLoss {
			rep.violate("%s: %d-batch last loss %v differs from the no-cache baseline's %v", w.name, sz.check, o.res.LastLoss, base.LastLoss)
		}
	}

	ex := float64(main.res.Examples)
	p50, p95 := main.load.sliceQuantile(0.50), main.load.sliceQuantile(0.95)
	rep.Metrics["train_ex_per_s"] = metric{main.exPerSec(), "ex/s"}
	rep.Metrics["tier_bytes_per_ex"] = metric{float64(tierBytes(main.res.Transport)) / ex, "bytes"}
	rep.Metrics["mesh_bytes_per_ex"] = metric{float64(meshBytes(main.res.MeshClasses)) / ex, "bytes"}
	rep.Metrics["serve_p50_ms"] = metric{ms(p50), "ms"}
	rep.Metrics["serve_p95_ms"] = metric{ms(p95), "ms"}
	rep.Metrics["serve_within_limit_share"] = metric{float64(main.load.within) / float64(main.load.issued), "share"}
	rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.finish()

	fmt.Printf("%s seed %d: %d batches, measured window %.2f s, %d queries (%d beyond the p95 of a %.0f-query slice), set-ups %.3f s\n",
		w.name, seed, batches, main.steadyWall.Seconds(), main.load.issued, int(w.qps)/20, w.qps, setups)
	return rep, nil
}

// baselineInProcess trains the plain fetch-per-batch reference over one
// in-process server: the ground truth every engine and fabric must match.
func baselineInProcess(w *workload, seed uint64, batches int) (*train.Result, uint64, error) {
	srv := embed.NewServer(numShards, embDim, seed^0xE, initScale)
	res, err := train.RunBaseline(w.trainConfig(seed, batches), transport.NewInProcess(srv))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: baseline: %w", w.name, err)
	}
	return res, srv.Fingerprint(), nil
}

// baselineOnFabric trains the same reference through the workload's own
// fabric, for train.baseline_ex_per_s.
func baselineOnFabric(w *workload, seed uint64, batches int) (float64, error) {
	r, err := newRig(w, seed, batches, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	cfg := r.cfg
	cfg.Progress = nil
	start := time.Now()
	res, err := train.RunBaseline(cfg, r.stores[0])
	if err != nil {
		return 0, fmt.Errorf("%s: baseline on fabric: %w", w.name, err)
	}
	return float64(res.Examples) / time.Since(start).Seconds(), nil
}
