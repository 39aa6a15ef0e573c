// Package reshard drives a live migration of the embedding tier from S to
// S′ servers while training and serving continue against it.
//
// The paper's premise is that the embedding tier is the scaling bottleneck
// of recommendation training: the working set grows and shrinks with the
// workload, not with the trainer fleet. A tier that can only change width
// by checkpoint-restart turns every capacity change into downtime. This
// package removes that restriction using machinery the tier already has:
// transport.CopyPart, the partition transfer a dead-server rejoin runs at
// unchanged width, aimed here at the intersections of two widths.
//
// The algorithm, per new-space partition p′ (0 ≤ p′ < S′):
//
//  1. Open p′'s dual-write window: push a routing table (epoch bumped)
//     marking p′ PartDual. From this epoch on, every tier client fans
//     writes of p′'s rows to the old owner ring *and* the new one; reads
//     still route old, so nothing is served from an unverified copy.
//     Servers fence the data plane by epoch, so a client still routing by
//     the predecessor table is rejected, adopts, and reissues — the window
//     is airtight, not probabilistic.
//  2. Stream p′'s rows to each new-ring member that does not already hold
//     them: for every old partition q that intersects p′ (q ≡ p′ mod
//     gcd(S, S′) — CRT; all other pairs are empty), CopyPart exports the
//     (q ∩ p′) intersection from a live old-ring replica and
//     recovery-writes it to the target. Each target's live-write marks are
//     cleared before the first dual epoch, and a dual write marks its row:
//     a recovery write skips a marked row, so the stream can never clobber
//     a newer live write.
//  3. Verify: CopyPart digests the same intersection on source and target
//     and compares. A mismatch (a write raced between the two probes)
//     retries the round after a backoff; rounds repeat until the digests
//     agree or the round budget is spent.
//  4. Cut over: push p′ as PartMoved. Reads flip to the new ring; writes
//     keep fanning to both rings, which is what keeps abort safe — the old
//     space stays complete until the final settle.
//
// When every partition has moved, a settled table at width S′ is pushed and
// each surviving server sheds the rows it no longer owns (RetainOwned).
// Any failure that leaves a partition uncertifiable — every old-ring source
// dead, no new-ring target verified — aborts: a settled table at the *old*
// width is pushed, streamed-in alien rows are shed, and the caller gets an
// attributed *transport.TierError with the tier exactly as it was.
package reshard

import (
	"errors"
	"fmt"
	"time"

	"bagpipe/internal/transport"
)

// Options configures one migration.
type Options struct {
	// To is the target tier width (required; 1 ≤ To ≤ tier capacity,
	// To ≠ current width, To ≥ replication factor).
	To int
	// TransferOptions tunes each (old partition, target) pair's
	// export→stream→verify rounds; MaxRounds and RoundBackoff also pace a
	// grow's spare admission.
	transport.TransferOptions
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Report is the migration's accounting.
type Report struct {
	From, To  int   // tier widths, source and target
	Replicate int   // the tier's replication factor
	Parts     int   // new-space partitions verified and cut over
	Rows      int   // rows streamed to migration targets
	Bytes     int64 // payload bytes streamed
	Epochs    int   // routing epochs consumed
	Aborted   bool  // true when the tier was rolled back to width From
}

func (o *Options) defaults() {
	o.TransferOptions = o.TransferOptions.WithDefaults()
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// gcd of two positive widths.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Run migrates t from its current width to opts.To and blocks until the
// tier settles — at the new width on success, back at the old width on
// abort (Report.Aborted true, error an attributed *transport.TierError).
// The tier stays fully live throughout: Run holds no lock any client op
// waits on beyond the per-epoch install barrier.
//
// Run must be the tier's only coordinator: one migration at a time, and
// no concurrent Rejoin (a rejoin started mid-reshard is refused by the
// tier; Run refuses to start unless the tier is settled).
func Run(t *transport.ShardedStore, opts Options) (*Report, error) {
	opts.defaults()
	start := t.Routing()
	if !start.Settled() {
		return nil, fmt.Errorf("reshard: tier is already resharding (epoch %d, %d→%d)", start.Epoch, start.OldS, start.NewS)
	}
	S, To, R := start.NewS, opts.To, t.Replicate()
	rep := &Report{From: S, To: To, Replicate: R}
	switch {
	case To < 1:
		return nil, fmt.Errorf("reshard: target width %d", To)
	case To > t.Capacity():
		return nil, fmt.Errorf("reshard: target width %d over tier capacity %d", To, t.Capacity())
	case To == S:
		return nil, fmt.Errorf("reshard: tier is already %d wide", S)
	case To < R:
		return nil, fmt.Errorf("reshard: target width %d below replication factor %d", To, R)
	}
	opts.Log("reshard: %d -> %d (replicate %d, capacity %d)", S, To, R, t.Capacity())

	// Grow: admit every spare the new space references before any routing
	// changes. A spare process may still be booting, so admission retries
	// on the round budget; a spare that never comes up fails the migration
	// before it starts — the tier is untouched.
	for s := S; s < To; s++ {
		var err error
		for round := 0; round < opts.MaxRounds; round++ {
			if err = t.EnsureServer(s); err == nil {
				break
			}
			time.Sleep(opts.RoundBackoff)
		}
		if err != nil {
			return nil, fmt.Errorf("reshard: target server %d never came up: %w", s, err)
		}
		opts.Log("reshard: target server %d live", s)
	}

	// Reset every live target before the first dual epoch: clearing its
	// live-write marks is what lets migration streams interleave with live
	// dual writes — a row the fan marks from here on is skipped by the
	// stream — and it clears the marks a retired spare kept from an
	// earlier width. A target whose reset fails is condemned (almost
	// certainly a server dying between admission and here, the chaos
	// race), so no stream reaches it unreset; the per-partition verify
	// decides whether the loss is fatal.
	for s := 0; s < To; s++ {
		if !t.LiveServer(s) {
			continue
		}
		if err := t.BeginRecoveryOn(s); err != nil {
			opts.Log("reshard: reset of server %d failed: %v", s, err)
		}
	}

	epoch := start.Epoch
	state := make([]transport.PartState, To)
	push := func(settledWidth int) error {
		epoch++
		var rt *transport.RoutingTable
		if settledWidth > 0 {
			rt = &transport.RoutingTable{Epoch: epoch, OldS: settledWidth, NewS: settledWidth}
		} else {
			rt = &transport.RoutingTable{Epoch: epoch, OldS: S, NewS: To,
				State: append([]transport.PartState(nil), state...)}
		}
		return t.PushRouting(rt)
	}
	abort := func(pn int, cause error) (*Report, error) {
		opts.Log("reshard: ABORT at partition %d: %v", pn, cause)
		if err := push(S); err != nil {
			// The local install still happened or the table was invalid;
			// either way the abort proceeds — clients self-heal by fence.
			opts.Log("reshard: abort rollback push: %v", err)
		}
		// Shed the alien rows the aborted migration streamed into old-space
		// servers. Spares admitted for a grow stay live but unrouted (no
		// table references them); Shutdown retires them.
		for s := 0; s < S; s++ {
			if !t.LiveServer(s) {
				continue
			}
			if _, err := t.RetainOwnedOn(s, s, S, R); err != nil {
				opts.Log("reshard: abort cleanup on server %d: %v", s, err)
			}
		}
		rep.Aborted = true
		rep.Epochs = int(epoch - start.Epoch)
		return rep, &transport.TierError{Op: "reshard", Partition: pn, Server: -1, Replicate: R, Cause: cause}
	}

	g := gcd(S, To)
	for pn := 0; pn < To; pn++ {
		// 1. Open pn's dual-write window.
		state[pn] = transport.PartDual
		if err := push(0); err != nil {
			return abort(pn, err)
		}
		// 2+3. Stream and verify pn on every new-ring member that does not
		// already hold it. A target that fails mid-stream is condemned and
		// skipped — the cutover needs one verified copy, not all of them;
		// readRingSub routes around the dead ones exactly as in a failover.
		verified := 0
		var lastErr error
		for k := 0; k < min(R, To); k++ {
			dst := (pn + k) % To
			if !t.LiveServer(dst) {
				continue
			}
			ok := true
			for q := pn % g; q < S; q += g {
				if dst < S && (dst-q+S)%S < min(R, S) {
					continue // dst is an old-ring replica of q: already authoritative
				}
				n, b, err := t.CopyPart(dst, q, S, pn, To, opts.TransferOptions, false)
				rep.Rows += n
				rep.Bytes += b
				if err != nil {
					opts.Log("reshard: partition %d: target %d failed (old part %d): %v", pn, dst, q, err)
					ok, lastErr = false, err
					if errors.Is(err, transport.ErrNoSource) {
						return abort(pn, err) // every source replica dead: the data is gone
					}
					break
				}
			}
			if ok {
				verified++
			}
		}
		if verified == 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("reshard: no live member in partition %d's new ring", pn)
			}
			return abort(pn, lastErr)
		}
		// 4. Cut pn's reads over to the new ring.
		state[pn] = transport.PartMoved
		if err := push(0); err != nil {
			return abort(pn, err)
		}
		rep.Parts++
		opts.Log("reshard: partition %d/%d moved (epoch %d, %d verified copies)", pn+1, To, epoch, verified)
	}

	// Settle at the new width, then shed what moved away. Retired servers
	// (a shrink's [To, S) range) hold their old partitions untouched — the
	// caller decides when to stop their processes.
	if err := push(To); err != nil {
		return abort(-1, err)
	}
	for s := 0; s < To; s++ {
		if !t.LiveServer(s) {
			continue
		}
		n, err := t.RetainOwnedOn(s, s, To, R)
		if err != nil {
			opts.Log("reshard: settle cleanup on server %d: %v", s, err)
			continue
		}
		if n > 0 {
			opts.Log("reshard: server %d shed %d rows", s, n)
		}
	}
	rep.Epochs = int(epoch - start.Epoch)
	opts.Log("reshard: settled at width %d (%d epochs, %d rows, %d bytes streamed)", To, rep.Epochs, rep.Rows, rep.Bytes)
	return rep, nil
}
