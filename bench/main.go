// Command bench is the repository's benchmark: four fabric x skew workloads,
// end-to-end train/serve metrics measured with tracing off, and a second,
// traced run that attributes time to layers purely from outside the engine.
// BENCHMARK.json at the repository root is its contract; README.md here
// explains the workloads and how to read the output.
//
// With --workload it performs one run of one workload in this process and
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload it runs every
// workload, timed and traced, each in a fresh child process, checks the
// fingerprints the runs must share, and writes out/result.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchGOMAXPROCS is frozen above the reference host's two cores on purpose.
// At GOMAXPROCS = cores the Go scheduler leaves a woken goroutine waiting for
// a trainer to finish its compute chunk: the query scheduler ran a median
// 4 ms and a p99 of 20 ms late, which swamped every serving number. With
// spare Ps the OS arbitrates between trainer compute and serving instead
// (lateness p50 0.5 ms) and training throughput is unchanged.
const benchGOMAXPROCS = 4

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 42, "the only source of randomness: training, embedding-server and query-stream seeds derive from it")
		seconds = flag.Int("seconds", 10, "measured work, in seconds at the frozen per-workload rate")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		sets    = flag.Int("sets", 1, "all-workloads mode: run the whole benchmark this many times and check the sets agree")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchGOMAXPROCS)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *sets, *outDir))
	}

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, sizesFor(w, *seconds), *outDir)
	} else {
		rep, err = timedRun(w, *seed, sizesFor(w, *seconds))
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(rep.Metrics)
	for _, v := range rep.violations {
		fmt.Println("VIOLATION:", v)
	}
	fmt.Printf("fingerprint %016x\n", rep.fingerprint)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-42s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// benchmarkFile mirrors the part of BENCHMARK.json the agreement check
// needs: the regression bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// hostStamp records where the numbers were taken.
type hostStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	LoadAvg1   float64 `json:"load_avg_1min_at_start"`
}

func stampHost() hostStamp {
	h := hostStamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", LoadAvg1: -1}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	return h
}

// workloadResult is one workload's pair of child runs.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Fingerprint string            `json:"fingerprint"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer"`
}

// child runs one workload in a fresh process and parses its last line.
func child(exe string, w *workload, seed uint64, seconds, trace int, outDir string) (*report, string, error) {
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "--out", outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last, fp string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println("   ", last)
		}
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "fingerprint "); ok {
			fp = rest
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, "", fmt.Errorf("%s trace=%d: no result line (%v): %w", w.name, trace, runErr, err)
	}
	return &rep, fp, nil
}

// runAll is the one command: every workload, timed then traced, in child
// processes; cross-run gates; result.json; and with sets > 1 the agreement
// check that the bounds in BENCHMARK.json come from.
func runAll(seed uint64, seconds, sets int, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var bf benchmarkFile
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	} else if err := json.Unmarshal(b, &bf); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	host := stampHost()
	ok := true
	var all [][]workloadResult
	for set := 0; set < sets; set++ {
		var results []workloadResult
		hotTail := map[string]string{} // fingerprint -> first hot-tail workload that ended there
		for i := range workloads {
			w := &workloads[i]
			fmt.Printf("== set %d/%d  %s: %s\n", set+1, sets, w.name, w.why)
			timed, fp, err := child(exe, w, seed, seconds, 0, outDir)
			if err != nil {
				fatal(err)
			}
			traced, _, err := child(exe, w, seed, seconds, 1, outDir)
			if err != nil {
				fatal(err)
			}
			r := workloadResult{Workload: w.name, Correct: timed.Correct && traced.Correct,
				Attempted: timed.Attempted + traced.Attempted, Failed: timed.Failed + traced.Failed,
				Fingerprint: fp, EndToEnd: timed.Metrics, PerLayer: traced.Metrics}
			// The three hot-tail workloads share one train.Config, so their
			// full timed runs must end in the same bits whatever the fabric.
			if !w.uniform {
				hotTail[fp] = w.name
				if len(hotTail) > 1 {
					fmt.Printf("VIOLATION: %s ended at fingerprint %s, another hot-tail workload elsewhere: %v\n", w.name, fp, hotTail)
					r.Correct = false
				}
			}
			if !r.Correct {
				r.Failed = r.Attempted
				ok = false
			}
			fmt.Printf("  %s: correct=%v attempted=%d failed=%d fail_share=%.4f\n", w.name, r.Correct, r.Attempted, r.Failed,
				float64(r.Failed)/float64(r.Attempted))
			printMetrics(r.EndToEnd)
			printMetrics(r.PerLayer)
			results = append(results, r)
		}
		all = append(all, results)
	}
	fmt.Println("not covered by any workload: P > 2 scaling, failover/rejoin/reshard under load, the lossy -sync-compress* modes, the pipelined engine, non-fused collectives")

	// Agreement between consecutive sets, metric by metric.
	for set := 1; set < sets; set++ {
		fmt.Printf("== agreement of set %d with set %d\n", set+1, set)
		for i, r := range all[set] {
			for _, e := range bf.EndToEnd {
				a, b := all[set-1][i].EndToEnd[e.Name].Value, r.EndToEnd[e.Name].Value
				diff := math.Abs(b-a) / math.Abs(a)
				verdict := "ok"
				if diff > e.Bound {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Printf("  %-15s %-26s %12.4f %12.4f  diff %.4f  bound %.2f  %s\n", r.Workload, e.Name, a, b, diff, e.Bound, verdict)
			}
		}
	}

	result := map[string]any{
		"seed":    seed,
		"seconds": seconds,
		"host":    host,
		"frozen": map[string]any{
			"dataset": fmt.Sprintf("criteo-kaggle/%d", scaleFactor), "emb_dim": embDim, "model": modelName, "optimizer": optName,
			"lr": learnRate, "batch_size": batchSize, "lookahead": lookAhead, "trainers": numTrainers, "servers": numServers,
			"shards_per_server": numShards, "warmup_iters": warmupIters, "check_iters": checkIters, "gomaxprocs": benchGOMAXPROCS,
			"serve_clients": serveClients, "serve_max_stale": serveMaxStale, "serve_cache_rows": serveCacheRows,
			"serve_limit_ms": ms(serveLimit), "workloads": describeWorkloads(),
		},
		"sets": all,
	}
	b, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
	if !ok {
		return 1
	}
	return 0
}

func describeWorkloads() []map[string]any {
	var out []map[string]any
	for _, w := range workloads {
		out = append(out, map[string]any{
			"name": w.name, "uniform_keys": w.uniform, "fabric": w.fab.kind,
			"link_latency_ms": ms(w.fab.linkLat), "link_bytes_per_s": w.fab.linkBW,
			"mesh_latency_ms": ms(w.fab.meshLat), "mesh_bytes_per_s": w.fab.meshBW,
			"replicate": w.replicate, "worker_engines": w.worker, "batches_per_second": w.batchesPerSec,
			"queries_per_s": w.qps, "query_dist": w.queryDist,
		})
	}
	return out
}
