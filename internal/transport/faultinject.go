package transport

import (
	"fmt"
	"sync/atomic"
)

// FaultStore wraps any child Link with a switchable failure — the
// unit-level stand-in for a killed or crawling remote server. The
// tier-failover suite uses it to condemn servers mid-run without real
// sockets; the serving conformance suite reuses it to drive the read path's
// breaker and shed logic. Production tiers never construct one; it lives in
// the main build so test suites in other packages (train, serve) can inject
// faults through the same wrapper.
//
// Semantics: while down, TryFetch, TryWrite and Control fail with an error
// naming the server. The errorless Store methods pass straight through — the
// tier drives its children only through the error-returning ops, so a
// FaultStore is always condemnable.
type FaultStore struct {
	Link
	server int
	down   atomic.Bool
}

// NewFaultStore wraps child as tier server index server.
func NewFaultStore(child Link, server int) *FaultStore {
	return &FaultStore{Link: child, server: server}
}

// SetDown switches the injected hard failure on or off.
func (f *FaultStore) SetDown(down bool) { f.down.Store(down) }

// instant preserves the child's scatter-path classification: wrapping an
// in-process server must not silently switch the tier to the concurrent
// scatter the serial tests pin.
func (f *FaultStore) instant() bool {
	is, ok := f.Link.(instantStore)
	return ok && is.instant()
}

// gate reports the down error, if any.
func (f *FaultStore) gate() error {
	if f.down.Load() {
		return fmt.Errorf("transport: fault injection: server %d down", f.server)
	}
	return nil
}

// TryFetch, TryWrite and Control implement Link: gate, then forward to the
// child. Every op is gated, so tests can kill a data-path server, an
// anti-entropy source or rejoiner mid-transfer, or a migration source,
// target or the coordinator's control plane mid-reshard.
func (f *FaultStore) TryFetch(ids []uint64) ([][]float32, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Link.TryFetch(ids)
}

func (f *FaultStore) TryWrite(ids []uint64, rows [][]float32) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Link.TryWrite(ids, rows)
}

func (f *FaultStore) Control(c *Ctl) (CtlResult, error) {
	if err := f.gate(); err != nil {
		return CtlResult{}, err
	}
	return f.Link.Control(c)
}
