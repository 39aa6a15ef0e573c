package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"bagpipe/internal/serve"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// outcome is everything one engine run yields, read from outside the
// engine: its public Result, the live Progress counter, this process's own
// clock, and the public counters of the rig's parts.
type outcome struct {
	res         *train.Result
	load        *loadResult // nil when the run did not serve
	fingerprint uint64

	// setup runs from the start of construction to the end of warm-up.
	setup time.Duration
	// steady is the measured window: end of warm-up to the last example.
	steadyWall     time.Duration
	steadyExamples int64
	sliceRates     []float64 // examples/s over consecutive ~1 s slices of the window
	steadyMallocs  uint64    // runtime.MemStats.Mallocs delta over the window

	audit      serve.AuditReport
	feStats    serve.Stats
	retries    int64
	failovers  int64
	dropped    int64 // mesh messages dropped
	embedStats embedTotals
}

type embedTotals struct {
	rowsFetched, rowsWritten int64
	materialized             int
}

// exPerSec is the training rate of the measured window: the median over its
// consecutive ~1 s slices, so that a burst of host noise shorter than half
// the window does not move it. A window shorter than three slices (traced
// and toy runs) reports examples / wall time.
func (o *outcome) exPerSec() float64 {
	if len(o.sliceRates) >= 3 {
		return median(o.sliceRates)
	}
	return float64(o.steadyExamples) / o.steadyWall.Seconds()
}

// runOnce constructs the workload and trains batches batches. With serve
// positive it also offers the open-loop query stream: while training runs
// (end of warm-up to the last batch) on a serveLive workload, for serve after
// training has finished on the others. Nothing else runs in the process
// meanwhile.
func runOnce(w *workload, seed uint64, batches int, tr *tracer, serve time.Duration) (*outcome, error) {
	t0 := time.Now()
	r, err := newRig(w, seed, batches, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()

	warm := warmupIters
	if batches < 2*warm {
		warm = batches / 2 // toy sizes in the harness's own test
	}
	warmEx, totalEx := int64(warm*batchSize), int64(batches*batchSize)

	o := &outcome{}
	warmed := make(chan struct{})
	trained := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		// The watcher is the only measuring instrument of the timed run: it
		// samples the engine's public Progress counter against this process's
		// clock. 2 ms polling bounds the edge error at 0.02% of a 10 s window.
		defer close(watched)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var tWarm, sliceT time.Time
		var exWarm, sliceEx int64
		var mallocsWarm uint64
		for range tick.C {
			ex, now := r.prog.Examples(), time.Now()
			if tWarm.IsZero() {
				if ex < warmEx {
					continue
				}
				runtime.ReadMemStats(&ms)
				tWarm, exWarm, mallocsWarm = now, ex, ms.Mallocs
				sliceT, sliceEx = now, ex
				o.setup = now.Sub(t0)
				if tr != nil {
					tr.startSteady(now)
				}
				close(warmed)
			}
			if dt := now.Sub(sliceT); dt >= time.Second {
				o.sliceRates = append(o.sliceRates, float64(ex-sliceEx)/dt.Seconds())
				sliceT, sliceEx = now, ex
			}
			if ex >= totalEx {
				runtime.ReadMemStats(&ms)
				o.steadyWall = now.Sub(tWarm)
				o.steadyExamples = ex - exWarm
				o.steadyMallocs = ms.Mallocs - mallocsWarm
				if tr != nil {
					tr.endSteady(now)
				}
				return
			}
			select {
			case <-trained: // the run failed before finishing its examples
				return
			default:
			}
		}
	}()
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		if serve <= 0 || !w.serveLive {
			return
		}
		select {
		case <-warmed:
			o.load = runOpenLoop(r.fe, r.cfg.Spec, seed^0x5E, w, tr, trained)
		case <-trained:
		}
	}()

	o.res, err = r.train()
	close(trained)
	<-watched
	<-loaded
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.steadyWall <= 0 {
		return nil, fmt.Errorf("%s: run ended before the watcher saw its last example", w.name)
	}
	if serve > 0 && !w.serveLive {
		stop := make(chan struct{})
		time.AfterFunc(serve, func() { close(stop) })
		o.load = runOpenLoop(r.fe, r.cfg.Spec, seed^0x5E, w, tr, stop)
	}

	o.fingerprint = r.fingerprint()
	o.audit = r.fe.Audit()
	o.feStats = r.fe.Stats()
	o.retries, o.failovers = r.tierHealth()
	o.dropped = o.res.Mesh.Dropped
	for _, srv := range r.servers {
		st := srv.Stats()
		o.embedStats.rowsFetched += st.RowsFetched
		o.embedStats.rowsWritten += st.RowsWritten
		o.embedStats.materialized += srv.NumMaterialized()
	}
	return o, nil
}

// tierBytes is the embedding-tier payload the trainers moved.
func tierBytes(t transport.Stats) int64 { return t.BytesFetched + t.BytesWritten }

// meshBytes is the mesh payload the trainers sent, all four classes.
func meshBytes(m train.MeshTraffic) int64 {
	return m.ReplicaBytes + m.SyncBytes + m.CollBytes + m.PlanBytes
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// quantile returns the nearest-rank q-quantile of xs and how many samples
// lie beyond it. xs keeps its order.
func quantile[T float64 | time.Duration](xs []T, q float64) (v T, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(float64(len(xs))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs) - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
