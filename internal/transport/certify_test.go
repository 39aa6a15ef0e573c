package transport

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/embed"
)

// fabricTier puts each server of tier behind a free SimNet ("sim") or a
// loopback TCP link ("tcp") and assembles an R-replicated tier client
// whose retries are quick and deterministic.
func fabricTier(t *testing.T, fabric string, tier []*embed.Server, R int) *ShardedStore {
	t.Helper()
	children := make([]Store, len(tier))
	for i, srv := range tier {
		if fabric == "sim" {
			children[i] = NewInProcess(srv)
			continue
		}
		addr, join := startEmbedServer(t, srv)
		l, err := DialTCPLink(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			l.Shutdown()
			join()
			l.Close()
		})
		children[i] = l
	}
	return NewTier(children, TierOptions{Replicate: R, Retries: 3, Backoff: time.Millisecond, Jitter: zeroJitter})
}

// TestCertifyMatchesMerge: on a trained R = 2 tier, over SimNet and over
// loopback TCP, Certify's verdict and the ids it names equal those of the
// in-memory reference, MergeTierReplicated + Diff, for a corrupt row on a
// non-primary replica, a row planted outside its server's replica set (a
// 3-server tier: at two servers every server holds every partition), an
// init-valued row materialized on one replica only, and a clean tier.
func TestCertifyMatchesMerge(t *testing.T) {
	const R = 2
	cases := []struct {
		name     string
		S        int
		mutate   func(tier []*embed.Server, ref *embed.Server, owned func(fresh bool) uint64)
		fail     bool
		exported int
	}{
		{"corrupt non-primary replica", 2, func(tier []*embed.Server, _ *embed.Server, owned func(bool) uint64) {
			tier[1].Write([]uint64{owned(false)}, [][]float32{{9, 9, 9, 9}})
		}, true, 1},
		{"row outside its replica set", 3, func(tier []*embed.Server, ref *embed.Server, owned func(bool) uint64) {
			id := owned(true)
			tier[2].Write([]uint64{id}, [][]float32{ref.Get(id)})
		}, true, 1},
		{"init row on one replica", 2, func(tier []*embed.Server, ref *embed.Server, owned func(bool) uint64) {
			id := owned(true)
			tier[1].Write([]uint64{id}, [][]float32{ref.Get(id)})
		}, false, 1},
		{"clean", 2, func([]*embed.Server, *embed.Server, func(bool) uint64) {}, false, 0},
	}
	for _, fabric := range []string{"sim", "tcp"} {
		for _, tc := range cases {
			t.Run(fabric+"/"+tc.name, func(t *testing.T) {
				tier, ref := testTier(tc.S), embed.NewServer(3, 4, 11, 0.1)
				st := fabricTier(t, fabric, tier, R)
				var trained []uint64
				for step := range 3 {
					ids := make([]uint64, 0, 16)
					for id := uint64(step); id < 48; id += 3 {
						ids = append(ids, id)
					}
					rows := st.Fetch(ids)
					for i := range rows {
						rows[i][0] += float32(step + 1)
					}
					st.Write(ids, rows)
					ref.Write(ids, rows)
					trained = append(trained, ids...)
				}
				// owned returns a trained id of partition 0, or (fresh) one
				// no server has materialized.
				owned := func(fresh bool) uint64 {
					for id := uint64(0); ; id++ {
						if core.OwnerOf(id, tc.S) == 0 && slices.Contains(trained, id) != fresh {
							return id
						}
					}
				}
				tc.mutate(tier, ref, owned)

				var wantIDs []uint64
				merged, mergeErr := embed.MergeTierReplicated(tier, R, nil)
				if mergeErr == nil {
					wantIDs = embed.Diff(ref, merged)
				}
				cert, err := Certify(st, ref)
				if err != nil {
					t.Fatal(err)
				}
				if fail := mergeErr != nil || len(wantIDs) != 0; fail != tc.fail || (len(cert.Differ) != 0) != tc.fail {
					t.Fatalf("reference fails %v (merge %v, diff %v), certificate names %v: want fail %v", fail, mergeErr, wantIDs, cert.Differ, tc.fail)
				}
				if mergeErr != nil {
					if len(cert.Differ) != 1 || !strings.Contains(mergeErr.Error(), fmt.Sprintf("id %d ", cert.Differ[0])) {
						t.Fatalf("certificate names %v, merge refused with %q", cert.Differ, mergeErr)
					}
				} else if !slices.Equal(cert.Differ, wantIDs) {
					t.Fatalf("certificate names %v, Diff names %v", cert.Differ, wantIDs)
				}
				if cert.Holders != tc.S*R || cert.Exported != tc.exported {
					t.Fatalf("certificate %+v: want %d holders digested, %d partitions exported", cert, tc.S*R, tc.exported)
				}
				if dead := st.DeadServers(); len(dead) != 0 {
					t.Fatalf("certification condemned %v", dead)
				}
			})
		}
	}
}

// TestCertifyNoLiveHolder: a partition whose every replica is down is a
// TierError naming it, not a certificate.
func TestCertifyNoLiveHolder(t *testing.T) {
	st, faults, _, ref, _ := faultTier(3, TierOptions{Replicate: 2, Retries: 1, Backoff: time.Millisecond})
	faults[1].SetDown(true)
	faults[2].SetDown(true)
	_, err := Certify(st, ref)
	var te *TierError
	if !errors.As(err, &te) || te.Op != "certify" || te.Partition != 1 {
		t.Fatalf("Certify with servers 1 and 2 down: %v, want a certify TierError for partition 1", err)
	}
}

// TestRefusedControlCondemnsNoOne: a control request the dispatcher refuses
// comes back to the tier's caller as the refusal, on SimNet and on
// loopback TCP children alike, without a retry and without condemning the
// healthy server that refused it.
func TestRefusedControlCondemnsNoOne(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			st := fabricTier(t, fabric, testTier(2), 2)
			_, err := st.RetainOwnedOn(0, 0, 2, 0)
			var re *RefusedError
			if !errors.As(err, &re) {
				t.Fatalf("RetainOwnedOn with replicate 0: %v, want a *RefusedError", err)
			}
			if dead := st.DeadServers(); len(dead) != 0 {
				t.Fatalf("DeadServers() = %v after a refusal, want none", dead)
			}
			if h := st.TierHealth(); h.Retries != 0 {
				t.Fatalf("TierHealth counts %d retries of a refusal, want 0", h.Retries)
			}
		})
	}
}
