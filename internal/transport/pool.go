package transport

import (
	"fmt"
	"math/bits"
	"sync"
)

// Hot-path buffer pooling. The steady-state LRPP iteration moves the same
// few shapes of memory every batch — fixed-width embedding rows
// ([]float32 of the tier's dim, and the dense collective's segments),
// row-slice headers ([][]float32 holding a fetch result or a payload's
// rows), id runs ([]uint64, the ids a replica push or sync flush carries
// in parallel with its rows) and, over sockets, encoded frames — and
// before this file existed each one was a fresh allocation, making GC the
// dominant avoidable cost on the P=4 TCP profile. The pools here are
// deliberately *not* sync.Pool: putting a slice header into a sync.Pool
// boxes it into an interface (one allocation per Put), which would defeat
// the 0 allocs/op goal outright. A mutex-guarded free list is
// allocation-free on both Get and Put, and the mutex gives the
// happens-before edge the race detector needs when rows migrate between
// trainer goroutines.
//
// Ownership discipline (see ARCHITECTURE.md "Memory discipline"):
//
//   - Rows(dim).Get hands out a buffer with undefined contents; the caller
//     must overwrite every element before reading.
//   - Put transfers ownership back. Returning is always optional — a row
//     that simply goes out of scope is collected normally — but a row must
//     never be Put while any other reference to it is live.
//   - Rows move in batches: whoever takes or returns the rows of one
//     message or one step does it with one GetN or PutN, so the arena's
//     lock is taken once per message, not once per row.
//   - A mesh payload belongs to whoever holds it: Endpoint.Send hands it to
//     exactly one receiver on every fabric, with its id run, its row-slice
//     header and its rows. In-process meshes deliver the value itself and
//     the receiver recycles it; the TCP endpoint encodes it and recycles it
//     at once (ReleasePayload), and the receiver recycles the decoded copy,
//     which the codec drew from the same pools.
//   - Row-slice headers are zeroed on Put so a recycled header can never
//     resurrect rows the previous owner released.
//
// Every free list is bounded, so a burst (an export, a reshard stream,
// the end of a run returning every resident row) cannot pin its peak in the
// pool for the rest of the process: a Put beyond the bound drops the buffer
// to the GC.
const (
	// maxArenaBytes bounds one RowArena's free list: at most
	// maxArenaBytes / (4·dim) rows (4 M rows at the benchmark's dim 16).
	maxArenaBytes = 256 << 20
	// maxPooledHeaders bounds the row-slice header and id-run free lists.
	maxPooledHeaders = 1024
	// Frame buffers are pooled in power-of-two capacity classes from
	// minPooledBuf to maxPooledBuf bytes, holding at most bufPoolBytes of
	// capacity in all. A buffer above maxPooledBuf (a large export
	// response) is never retained.
	minPooledBuf  = 1 << 10
	numBufClasses = 13
	maxPooledBuf  = minPooledBuf << (numBufClasses - 1) // 4 MiB
	bufPoolBytes  = 32 << 20
)

// RowArena recycles fixed-width row buffers. All rows in one arena have the
// same length; Get/Put of mismatched widths panic, which catches ownership
// bugs (a sub-slice of a larger buffer, say) at the pool boundary instead
// of as silent aliasing.
type RowArena struct {
	dim   int
	limit int // free-list bound, maxArenaBytes / (4·dim)
	mu    sync.Mutex
	free  [][]float32
}

// NewRowArena returns an empty arena for rows of width dim.
func NewRowArena(dim int) *RowArena {
	if dim <= 0 {
		panic(fmt.Sprintf("transport: row arena dim %d", dim))
	}
	return &RowArena{dim: dim, limit: max(1, maxArenaBytes/(4*dim))}
}

// rowArenas is the per-width registry behind Rows. Transports and trainers
// that share a tier share one arena, so a row fetched by one component can
// be released by whichever component consumes it last.
var rowArenas sync.Map // int → *RowArena

// Rows returns the process-wide shared arena for rows of width dim.
func Rows(dim int) *RowArena {
	if a, ok := rowArenas.Load(dim); ok {
		return a.(*RowArena)
	}
	a, _ := rowArenas.LoadOrStore(dim, NewRowArena(dim))
	return a.(*RowArena)
}

// Dim returns the row width this arena serves.
func (a *RowArena) Dim() int { return a.dim }

// Get returns a row of length Dim with undefined contents. The caller owns
// it until (optionally) returning it with Put.
func (a *RowArena) Get() []float32 {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		row := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return row
	}
	a.mu.Unlock()
	return make([]float32, a.dim)
}

// GetN fills every slot of dst with a row from the arena under a single
// lock acquisition.
func (a *RowArena) GetN(dst [][]float32) {
	a.mu.Lock()
	n := len(a.free)
	for i := range dst {
		if n > 0 {
			n--
			dst[i] = a.free[n]
			a.free[n] = nil
		} else {
			dst[i] = make([]float32, a.dim)
		}
	}
	a.free = a.free[:n]
	a.mu.Unlock()
}

// Put returns row to the arena. The caller must hold the only live
// reference. Panics if the row's length is not the arena width — a
// foreign or sub-sliced buffer must never enter the free list.
func (a *RowArena) Put(row []float32) {
	if len(row) != a.dim {
		panic(fmt.Sprintf("transport: put row len %d into dim-%d arena", len(row), a.dim))
	}
	a.mu.Lock()
	if len(a.free) < a.limit {
		a.free = append(a.free, row)
	}
	a.mu.Unlock()
}

// PutN returns every non-nil row in rows under a single lock acquisition.
// The slice itself is left untouched (callers usually recycle or truncate
// it separately).
func (a *RowArena) PutN(rows [][]float32) {
	a.mu.Lock()
	for _, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != a.dim {
			a.mu.Unlock()
			panic(fmt.Sprintf("transport: put row len %d into dim-%d arena", len(row), a.dim))
		}
		if len(a.free) < a.limit {
			a.free = append(a.free, row)
		}
	}
	a.mu.Unlock()
}

// ReleasePayload returns what a mesh payload owns — arena rows, pooled id
// and row-slice headers, collective chunks — to the pools, and hands a
// plan back to the oracle that cut it (core.Plan.Release). The last holder
// of a payload calls it once done (see Endpoint.Send): the TCP endpoint
// right after encoding, a receiver once it has consumed what it received.
// Payload types that own nothing pooled are left to the GC.
func ReleasePayload(p any) {
	switch m := p.(type) {
	case ReplicaMsg:
		releaseRun(m.Rows)
	case SyncBatchMsg:
		for _, f := range m.Flushes {
			releaseRun(f.Partials)
		}
		PutSyncList(m.Flushes)
	case FusedCollMsg:
		if len(m.Data) > 0 {
			Rows(len(m.Data)).Put(m.Data)
		}
		putBuf(m.Packed)
	case PlanMsg:
		m.Plan.Release()
	}
}

// releaseRun returns one run of rows — they share a width — with one
// PutN, then its header.
func releaseRun(rows [][]float32) {
	if len(rows) > 0 && len(rows[0]) > 0 {
		Rows(len(rows[0])).PutN(rows)
	}
	PutRowSlice(rows)
}

// slicePool is a bounded free list of slice headers: row-slice headers
// ([][]float32 holding a fetch result or a payload's rows) and id runs
// ([]uint64 of a payload). Headers are zeroed on put so a recycled
// row-slice header can never resurrect rows the previous owner released.
type slicePool[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// get returns a slice of length n with zeroed slots.
func (p *slicePool[T]) get(n int) []T {
	p.mu.Lock()
	if l := len(p.free); l > 0 {
		h := p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		if cap(h) >= n {
			p.mu.Unlock()
			return h[:n]
		}
		// Too small for this request: drop it and allocate at the new high
		// water mark. Steady-state sizes converge, so this settles.
	}
	p.mu.Unlock()
	return make([]T, n)
}

func (p *slicePool[T]) put(h []T) {
	if h == nil {
		return
	}
	clear(h[:cap(h)])
	p.mu.Lock()
	if len(p.free) < maxPooledHeaders {
		p.free = append(p.free, h)
	}
	p.mu.Unlock()
}

var (
	rowSlicePool slicePool[[]float32]
	syncListPool slicePool[SyncMsg]
)

// GetRowSlice returns a [][]float32 of length n with all-nil slots. The
// caller must assign every slot before reading.
func GetRowSlice(n int) [][]float32 { return rowSlicePool.get(n) }

// PutRowSlice returns a header to the pool, clearing its slots. The rows it
// referenced are unaffected — releasing those is a separate decision made
// by whoever owns them.
func PutRowSlice(h [][]float32) { rowSlicePool.put(h) }

// GetSyncList returns a flush list of length n with zeroed entries — the
// Flushes of a SyncBatchMsg, which transfers with the message.
func GetSyncList(n int) []SyncMsg { return syncListPool.get(n) }

// PutSyncList returns a flush list to the pool, clearing its entries. The
// partials they named are unaffected: their owner releases them separately.
func PutSyncList(l []SyncMsg) { syncListPool.put(l) }

// bufPool recycles encoded frames: class c holds buffers whose capacity is
// at least minPooledBuf<<c, so any buffer in class bufClass(n) fits n bytes.
var bufPool struct {
	mu    sync.Mutex
	free  [numBufClasses][][]byte
	bytes int // summed capacity of the free buffers, ≤ bufPoolBytes
}

// bufClass is the smallest class whose buffers hold n bytes.
func bufClass(n int) int {
	if n <= minPooledBuf {
		return 0
	}
	return bits.Len(uint((n - 1) / minPooledBuf))
}

// pooledBuf returns an empty pooled buffer that holds n bytes, or nil when
// its class has none free (or n exceeds maxPooledBuf).
func pooledBuf(n int) []byte {
	if n > maxPooledBuf {
		return nil
	}
	c := bufClass(n)
	bufPool.mu.Lock()
	defer bufPool.mu.Unlock()
	l := len(bufPool.free[c])
	if l == 0 {
		return nil
	}
	b := bufPool.free[c][l-1]
	bufPool.free[c][l-1] = nil
	bufPool.free[c] = bufPool.free[c][:l-1]
	bufPool.bytes -= cap(b)
	return b
}

// classCap is the capacity a fresh buffer for n bytes gets: its class's
// size, so it pools on return, or exactly n beyond maxPooledBuf.
func classCap(n int) int {
	if n > maxPooledBuf {
		return n
	}
	return minPooledBuf << bufClass(n)
}

// getBuf returns an empty buffer with room for n bytes: pooled when one is
// free, else freshly allocated at classCap(n).
func getBuf(n int) []byte {
	if b := pooledBuf(n); b != nil {
		return b
	}
	return make([]byte, 0, classCap(n))
}

// GetBytes returns an empty buffer from the frame-buffer pool with room for
// n bytes: a payload's own bytes (an all-gather chunk's coding), which
// whoever releases the payload returns (ReleasePayload).
func GetBytes(n int) []byte { return getBuf(n) }

// putBuf returns a buffer to the pool. The caller must hold the only live
// reference. Buffers outside [minPooledBuf, maxPooledBuf], and any that
// would take the pool past bufPoolBytes, are dropped.
func putBuf(b []byte) {
	c := cap(b)
	if c < minPooledBuf || c > maxPooledBuf {
		return
	}
	k := bits.Len(uint(c/minPooledBuf)) - 1 // largest class whose size ≤ c
	bufPool.mu.Lock()
	if bufPool.bytes+c <= bufPoolBytes {
		bufPool.free[k] = append(bufPool.free[k], b[:0])
		bufPool.bytes += c
	}
	bufPool.mu.Unlock()
}

// reusable returns b emptied for another frame, or nil once it has grown
// past maxPooledBuf: a one-off giant frame is not kept for the life of a
// connection.
func reusable(b []byte) []byte {
	if cap(b) > maxPooledBuf {
		return nil
	}
	return b[:0]
}
