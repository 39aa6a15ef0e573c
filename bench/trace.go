package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// The traced run sees the system only from outside: decorators around the
// transport.Store, transport.ReadStore and transport.Mesh faces the engine
// and front end are handed, plus the engine's existing LRPPHooks callbacks.
// Spans are appended to pre-sized in-memory slices and written out when the
// run ends.

// span is one timed call into a layer. All spans of one (trainer,
// iteration) share that pair as identifier; the root of an iteration is
// its train.iter span. Serving spans use trainer -1-client and the query's
// sequence number as iter. Parent indexes the written span array, -1 for a
// root (or for a span whose cause lies outside every recorded root).
type span struct {
	Name    string `json:"name"`
	Trainer int    `json:"trainer"`
	Iter    int    `json:"iter"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

const (
	spanIter      = "train.iter"
	spanFetch     = "transport.fetch"
	spanWrite     = "transport.write"
	spanMeshSend  = "transport.mesh_send." // + class
	spanQuery     = "serve.query"
	spanReadFetch = "serve.readfetch"

	// captureCalls bounds what the decorators keep for the replay
	// micro-benchmarks: the first calls of the measured window, deep-copied.
	captureCalls = 48
)

// lane holds the spans of one trainer (or of the serving side). Several
// engine goroutines of a trainer record concurrently, hence the lock; lanes
// never contend with each other.
type lane struct {
	mu    sync.Mutex
	spans []span
	root  map[int]int // iter -> index of its train.iter span

	pendingFetch map[*uint64]int // &ids[0] announced by OnPrefetch -> iter
	lastWrite    int             // transport.write span awaiting OnWriteBack's iteration
	lastRetire   int64
	gaps         []time.Duration // between consecutive OnRetire events, measured window only

	// readKey tags serving spans with the identity of the ids slice, which
	// is per-client scratch in the front end; finish() resolves it to the
	// client whose queries enclose the calls.
	readKey []*uint64
}

type writeCapture struct {
	ids  []uint64
	rows [][]float32
}

type tracer struct {
	epoch  time.Time
	lanes  []*lane // one per trainer, then the serving lane
	steady atomic.Bool
	sStart atomic.Int64
	sEnd   atomic.Int64

	recvWait atomic.Int64 // ns the trainers' receivers spent blocked in Recv, measured window

	capMu   sync.Mutex
	fetches [][]uint64 // id batches of captured Fetch calls
	writes  []writeCapture
	frames  [][]byte // encoded mesh payloads, in send order
}

func newTracer(iters int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i <= numTrainers; i++ {
		t.lanes = append(t.lanes, &lane{
			spans:        make([]span, 0, 8*iters+1024),
			root:         make(map[int]int, iters),
			pendingFetch: make(map[*uint64]int),
			lastWrite:    -1,
		})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) startSteady(at time.Time) {
	t.sStart.Store(int64(at.Sub(t.epoch)))
	t.steady.Store(true)
}

func (t *tracer) endSteady(at time.Time) {
	t.steady.Store(false)
	t.sEnd.Store(int64(at.Sub(t.epoch)))
}

func (t *tracer) serving() *lane { return t.lanes[numTrainers] }

// hooks records the root span of every (trainer, iteration): OnPrefetch
// opens it, OnRetire closes it, and OnWriteBack names the iteration of the
// write the trainer's maintenance goroutine just issued.
func (t *tracer) hooks() *train.LRPPHooks {
	return &train.LRPPHooks{
		OnPrefetch: func(trainer, iter int, ids []uint64) {
			l := t.lanes[trainer]
			now := t.now()
			l.mu.Lock()
			l.root[iter] = len(l.spans)
			l.spans = append(l.spans, span{Name: spanIter, Trainer: trainer, Iter: iter, Start: now, Parent: -1})
			// The engine passes the very slice it fetches next, on the same
			// goroutine: its identity ties the fetch to the iteration.
			l.pendingFetch[&ids[0]] = iter
			l.mu.Unlock()
		},
		OnWriteBack: func(owner, iter int, _ []uint64) {
			l := t.lanes[owner]
			l.mu.Lock()
			if l.lastWrite >= 0 {
				l.spans[l.lastWrite].Iter = iter
				if r, ok := l.root[iter]; ok {
					l.spans[l.lastWrite].Parent = r
				}
				l.lastWrite = -1
			}
			l.mu.Unlock()
		},
		OnRetire: func(owner, iter int) {
			l := t.lanes[owner]
			now := t.now()
			l.mu.Lock()
			if r, ok := l.root[iter]; ok {
				l.spans[r].End = now
			}
			if l.lastRetire != 0 && t.steady.Load() {
				l.gaps = append(l.gaps, time.Duration(now-l.lastRetire))
			}
			l.lastRetire = now
			l.mu.Unlock()
		},
	}
}

// tracedStore spans the Fetch and Write of one trainer's top-level tier
// client. Everything else forwards, TierHealth included, so the engine
// reads the same counters it would without the decorator.
type tracedStore struct {
	*transport.ShardedStore
	t       *tracer
	trainer int
}

func (t *tracer) wrapStore(trainer int, st *transport.ShardedStore) transport.Store {
	return &tracedStore{ShardedStore: st, t: t, trainer: trainer}
}

func (s *tracedStore) Fetch(ids []uint64) [][]float32 {
	l := s.t.lanes[s.trainer]
	iter, parent := -1, -1
	if len(ids) > 0 {
		l.mu.Lock()
		if it, ok := l.pendingFetch[&ids[0]]; ok {
			delete(l.pendingFetch, &ids[0])
			iter, parent = it, l.root[it]
		}
		l.mu.Unlock()
	}
	if s.t.steady.Load() {
		s.t.captureFetch(ids)
	}
	start := s.t.now()
	rows := s.ShardedStore.Fetch(ids)
	end := s.t.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: spanFetch, Trainer: s.trainer, Iter: iter, Start: start, End: end, Parent: parent})
	l.mu.Unlock()
	return rows
}

func (s *tracedStore) Write(ids []uint64, rows [][]float32) {
	if s.t.steady.Load() {
		s.t.captureWrite(ids, rows)
	}
	start := s.t.now()
	s.ShardedStore.Write(ids, rows)
	end := s.t.now()
	l := s.t.lanes[s.trainer]
	l.mu.Lock()
	l.lastWrite = len(l.spans)
	l.spans = append(l.spans, span{Name: spanWrite, Trainer: s.trainer, Iter: -1, Start: start, End: end, Parent: -1})
	l.mu.Unlock()
}

func (t *tracer) captureFetch(ids []uint64) {
	t.capMu.Lock()
	if len(t.fetches) < captureCalls {
		t.fetches = append(t.fetches, slices.Clone(ids))
	}
	t.capMu.Unlock()
}

func (t *tracer) captureWrite(ids []uint64, rows [][]float32) {
	t.capMu.Lock()
	if len(t.writes) < captureCalls {
		c := writeCapture{ids: slices.Clone(ids), rows: make([][]float32, len(rows))}
		for i, r := range rows {
			c.rows[i] = slices.Clone(r)
		}
		t.writes = append(t.writes, c)
	}
	t.capMu.Unlock()
}

// tracedReadStore spans the front end's ReadFetch calls.
type tracedReadStore struct {
	inner transport.ReadStore
	t     *tracer
}

func (t *tracer) wrapReadStore(rs transport.ReadStore) transport.ReadStore {
	return &tracedReadStore{inner: rs, t: t}
}

func (s *tracedReadStore) Dim() int { return s.inner.Dim() }

func (s *tracedReadStore) ReadFetch(ids []uint64, pol transport.ReadPolicy) ([][]float32, error) {
	start := s.t.now()
	rows, err := s.inner.ReadFetch(ids, pol)
	end := s.t.now()
	l := s.t.serving()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: spanReadFetch, Trainer: -1, Iter: -1, Start: start, End: end, Parent: -1})
	l.readKey = append(l.readKey, &ids[0])
	l.mu.Unlock()
	return rows, err
}

// query records the generator-side root span of one served query.
func (t *tracer) query(client, seq int, start, end time.Time) {
	l := t.serving()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: spanQuery, Trainer: -1 - client, Iter: seq,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1})
	l.readKey = append(l.readKey, nil)
	l.mu.Unlock()
}

// tracedMesh wraps every endpoint the engine asks for.
type tracedMesh struct {
	transport.Mesh
	t *tracer
}

func (t *tracer) wrapMesh(m transport.Mesh) transport.Mesh { return &tracedMesh{Mesh: m, t: t} }

func (m *tracedMesh) Endpoint(rank int) transport.Endpoint {
	return &tracedEndpoint{Endpoint: m.Mesh.Endpoint(rank), t: m.t}
}

// tracedEndpoint spans Send, classed by payload type, and accumulates the
// time the receiver goroutine spends blocked in Recv.
type tracedEndpoint struct {
	transport.Endpoint
	t *tracer
}

// classify names the traffic class of a mesh payload and the iteration it
// belongs to (-1 when the payload does not say).
func classify(payload any) (class string, iter int) {
	switch p := payload.(type) {
	case transport.ReplicaMsg:
		return "replica", p.Iter
	case transport.SyncMsg:
		return "sync", p.Iter
	case transport.SyncBatchMsg:
		if len(p.Flushes) > 0 {
			return "sync", p.Flushes[0].Iter
		}
		return "sync", -1
	case transport.PlanMsg:
		return "plan", p.Plan.Dec.Iter
	case transport.FusedCollMsg:
		return "coll", int(p.Seq) // one fused round per iteration, numbered from 0
	case transport.CollMsg:
		return "coll", -1
	}
	return "other", -1
}

func (e *tracedEndpoint) Send(to int, bytes int64, payload any) bool {
	// Everything about the payload is read before Send: the in-process
	// meshes hand it to the receiver by reference, which then recycles it.
	class, iter := classify(payload)
	if e.t.steady.Load() {
		e.t.capMu.Lock()
		if len(e.t.frames) < 4*captureCalls {
			e.t.frames = append(e.t.frames, transport.EncodePayload(payload))
		}
		e.t.capMu.Unlock()
	}
	start := e.t.now()
	ok := e.Endpoint.Send(to, bytes, payload)
	end := e.t.now()
	l := e.t.lanes[e.Rank()]
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: spanMeshSend + class, Trainer: e.Rank(), Iter: iter, Start: start, End: end, Parent: -1})
	l.mu.Unlock()
	return ok
}

func (e *tracedEndpoint) Recv() (transport.MeshMsg, bool) {
	start := time.Now()
	m, ok := e.Endpoint.Recv()
	if e.t.steady.Load() {
		e.t.recvWait.Add(int64(time.Since(start)))
	}
	return m, ok
}

// finish closes the trace: it resolves the parents that could not be known
// when the span was recorded and returns all lanes as one array whose
// Parent fields index it.
//
//   - a mesh send belongs to its (trainer, iteration) root when it happened
//     inside that root's interval (plans are sent a lookahead window early
//     and delayed flushes may trail retirement: those stay detached);
//   - a ReadFetch belongs to the query of the client whose scratch slice it
//     was called with; the client is the one whose queries enclose the most
//     calls made with that slice.
func (t *tracer) finish() []span {
	var all []span
	for li, l := range t.lanes {
		base := len(all)
		if li == numTrainers {
			resolveReadFetch(l)
		}
		for i := range l.spans {
			s := &l.spans[i]
			if strings.HasPrefix(s.Name, spanMeshSend) && s.Iter >= 0 {
				if r, ok := l.root[s.Iter]; ok {
					if rs := l.spans[r]; rs.End > 0 && s.Start >= rs.Start && s.End <= rs.End {
						s.Parent = r
					}
				}
			}
		}
		for _, s := range l.spans {
			if s.Name == spanIter && s.End == 0 {
				s.End = s.Start // an iteration the run never retired; the gates report it
			}
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

func resolveReadFetch(l *lane) {
	var queries []int // indices of serve.query spans, in start order
	for i, s := range l.spans {
		if s.Name == spanQuery {
			queries = append(queries, i)
		}
	}
	sort.Slice(queries, func(a, b int) bool { return l.spans[queries[a]].Start < l.spans[queries[b]].Start })
	enclosing := func(i, client int) int {
		s := l.spans[i]
		for _, q := range queries {
			qs := l.spans[q]
			if qs.Start > s.Start {
				break
			}
			if qs.Trainer == -1-client && qs.End >= s.End {
				return q
			}
		}
		return -1
	}
	votes := make(map[*uint64][serveClients]int)
	for i, key := range l.readKey {
		if key == nil {
			continue
		}
		v := votes[key]
		for c := 0; c < serveClients; c++ {
			if enclosing(i, c) >= 0 {
				v[c]++
			}
		}
		votes[key] = v
	}
	for i, key := range l.readKey {
		if key == nil {
			continue
		}
		v, best := votes[key], 0
		for c := 1; c < serveClients; c++ {
			if v[c] > v[best] {
				best = c
			}
		}
		if q := enclosing(i, best); q >= 0 {
			l.spans[i].Parent = q
			l.spans[i].Trainer = l.spans[q].Trainer
			l.spans[i].Iter = l.spans[q].Iter
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			ks, ke := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if ke > ks {
				self[i] -= ke - ks
				covered = ke
			}
		}
	}
	return self
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
