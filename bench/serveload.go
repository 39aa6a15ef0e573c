package main

import (
	"errors"
	"sync"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/serve"
	"bagpipe/internal/transport"
)

// loadResult is what the open-loop generator observed. Latencies are
// measured around Frontend.Serve by the generator itself, from each query's
// due time, so a stall charges every query that queued behind it.
type loadResult struct {
	issued   int64
	served   int64
	rateShed int64
	tierShed int64
	other    int64           // other errors, and queries dropped because the backlog was full
	within   int64           // served within serveLimit of the due time
	lat      []time.Duration // due time -> answer, served queries only
	latAt    []time.Duration // the due time of each lat sample, since the first query's
	late     []time.Duration // due time -> released by the scheduler, every issued query
	elapsed  time.Duration
}

func (l *loadResult) failed() int64 { return l.issued - l.served }

// sliceQuantile is the q-quantile of latency as the end-to-end metrics report
// it: the median over consecutive 1 s slices (by due time) of each slice's
// q-quantile, so that one pause of the shared host, which would own the
// tail of a 3 s window, moves one slice and not the result. Slices need 20
// samples; with fewer than three such slices (toy runs) it is the plain
// quantile of all samples.
func (l *loadResult) sliceQuantile(q float64) time.Duration {
	slices := map[int][]time.Duration{}
	for i, at := range l.latAt {
		slices[int(at/time.Second)] = append(slices[int(at/time.Second)], l.lat[i])
	}
	var qs []float64
	for _, lat := range slices {
		if len(lat) >= 20 {
			v, _ := quantile(lat, q)
			qs = append(qs, float64(v))
		}
	}
	if len(qs) < 3 {
		v, _ := quantile(l.lat, q)
		return v
	}
	return time.Duration(median(qs))
}

type query struct {
	seq int
	due time.Time
	ex  data.Example
}

// runOpenLoop offers queries to fe at a fixed rate until stop closes: one
// scheduler goroutine draws query k of a single seeded stream and releases
// it at start + k/qps whatever the system is doing, and serveClients
// goroutines (Serve calls for one client must be serial) answer them. The
// query sequence depends only on the seed; which client answers a query
// does not change its inputs. Client threads never exceed serveClients,
// which is no more than the reference host's cores.
func runOpenLoop(fe *serve.Frontend, spec *data.Spec, seed uint64, w *workload, tr *tracer, stop <-chan struct{}) *loadResult {
	dist, ok := data.ServingDist(w.queryDist)
	if !ok {
		panic("bench: unknown query distribution " + w.queryDist)
	}
	gen := data.NewQueryGen(spec, seed, 0, dist)
	interval := time.Duration(float64(time.Second) / w.qps)

	// The backlog holds queries released but not yet picked up. An open loop
	// must not block on a slow system, so it is sized for ~4 s of arrivals at
	// the highest frozen rate; overflow is counted as a failure, not waited on.
	jobs := make(chan *query, 1024)
	res := &loadResult{}
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, latAt []time.Duration
			var served, rateShed, tierShed, other, within int64
			for q := range jobs {
				picked := time.Now()
				_, err := fe.Serve(c, &q.ex)
				done := time.Now()
				d := done.Sub(q.due)
				if tr != nil {
					tr.query(c, q.seq, picked, done)
				}
				var te *transport.TierError
				switch {
				case err == nil:
					served++
					lat = append(lat, d)
					latAt = append(latAt, q.due.Sub(start))
					if d <= serveLimit {
						within++
					}
				case errors.Is(err, serve.ErrRateLimited):
					rateShed++
				case errors.As(err, &te):
					tierShed++
				default:
					other++
				}
			}
			mu.Lock()
			res.served += served
			res.rateShed += rateShed
			res.tierShed += tierShed
			res.other += other
			res.within += within
			res.lat = append(res.lat, lat...)
			res.latAt = append(res.latAt, latAt...)
			mu.Unlock()
		}()
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var dropped int64
schedule:
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			break schedule
		case <-timer.C:
		}
		q := &query{seq: k, due: due}
		gen.Next(&q.ex)
		res.issued++
		res.late = append(res.late, time.Since(due))
		select {
		case jobs <- q:
		default:
			dropped++
		}
	}
	close(jobs)
	wg.Wait()
	res.other += dropped
	res.elapsed = time.Since(start)
	return res
}
