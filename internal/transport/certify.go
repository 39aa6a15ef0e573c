package transport

import (
	"slices"

	"bagpipe/internal/embed"
)

// Certificate is what Certify found: the per-holder partition digests it
// compared with the reference's, the partitions it exported, the rows
// those exports compared, and the ids whose rows differ from the
// reference or sit outside their holder's replica set, ascending. The tier
// is certified bit-identical to the reference when Differ is empty.
type Certificate struct {
	Holders, Exported, Compared int
	Differ                      []uint64
}

// Certify certifies st's embedding state against ref by digest first,
// moving rows only where a digest differs:
//
//  1. Every live holder of every partition p of the routed width W digests
//     p, and the digest must equal ref.FingerprintPart(p, W): each replica,
//     a rejoined one included, is held to the reference on its own.
//  2. Every live server's whole digest must equal the sum of its held
//     partitions' digests; a row outside its replica set breaks the sum,
//     and exporting the partitions it does not hold names that row.
//  3. A holder whose digest differs exports that partition, compared with
//     ref by embed's Diff rule (Server.DiffRows): a row materialized on one
//     side only compares as its init, so a mismatch is not yet a verdict.
//
// It runs under the tier's install barrier, against its down set: a holder
// that fails its RPCs is condemned as on the data path, and a partition
// left with no live holder is a *TierError. A bare link is the
// one-partition tier.
func Certify(st Store, ref *embed.Server) (c Certificate, err error) {
	t, ok := st.(*ShardedStore)
	if !ok {
		t = NewShardedStore([]Store{st})
	}
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	W := t.routing.Load().Width()
	R := min(t.replicate, W)
	want := make([]uint64, W)
	for p := range want {
		want[p] = ref.FingerprintPart(p, W)
	}
	covered := make([]bool, W)
	for s := 0; s < W; s++ {
		if t.down(s) {
			continue
		}
		var sc Certificate
		if t.attempt(s, t.retries, func(l Link) error {
			sc = Certificate{}
			return sc.server(l, s, W, R, want, ref)
		}) != nil {
			continue // condemned: its partitions need another live holder
		}
		c.Holders, c.Exported, c.Compared = c.Holders+sc.Holders, c.Exported+sc.Exported, c.Compared+sc.Compared
		c.Differ = append(c.Differ, sc.Differ...)
		for k := 0; k < R; k++ {
			covered[(s-k+W)%W] = true
		}
	}
	for p, ok := range covered {
		if !ok {
			srv := (p + t.replicate - 1) % W
			return c, &TierError{Op: "certify", Partition: p, Server: srv, Replicate: t.replicate, Cause: t.deadCause(srv)}
		}
	}
	slices.Sort(c.Differ)
	c.Differ = slices.Compact(c.Differ)
	return c, nil
}

// server certifies one live server s of a W-wide tier whose replica rings
// are R deep: the partitions it holds (s, s−1, …, s−R+1 on the ring)
// against want, then its whole digest against their sum.
func (c *Certificate) server(l Link, s, W, R int, want []uint64, ref *embed.Server) error {
	var sum uint64
	for k := 0; k < R; k++ {
		p := (s - k + W) % W
		fp, err := l.Control(&Ctl{Op: CtlFingerprintPartIn, Part: p, Of: W})
		if err != nil {
			return err
		}
		c.Holders++
		sum += fp.N
		if fp.N == want[p] {
			continue
		}
		c.Exported++
		ex, err := l.Control(&Ctl{Op: CtlExportPartIn, Part: p, Of: W})
		if err != nil {
			return err
		}
		differ, n := ref.DiffRows(p, W, ex.IDs, ex.Rows)
		c.Compared += n
		c.Differ = append(c.Differ, differ...)
	}
	if R == W {
		return nil // it holds every partition: the sum is its whole digest
	}
	whole, err := l.Control(&Ctl{Op: CtlFingerprintPartIn, Of: 1})
	if err != nil || whole.N == sum {
		return err
	}
	for k := R; k < W; k++ {
		c.Exported++
		ex, err := l.Control(&Ctl{Op: CtlExportPartIn, Part: (s - k + W) % W, Of: W})
		if err != nil {
			return err
		}
		c.Differ = append(c.Differ, ex.IDs...)
	}
	return nil
}
