package train

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// The engine-level chaos leg: a replicated tier loses a server mid-training
// and the LRPP run must finish AND still satisfy the central differential
// property — merged surviving state bit-identical to the no-cache baseline,
// bit-identical losses. This is the in-test form of
// `bagpipe -trainers P -servers S -replicate 2 -net tcp -kill-server 1`.

// chaosStore wraps one trainer's transport to one server. All wrappers
// share one op counter; once it crosses the threshold, every wrapper of the
// doomed server fails — the same globally-consistent "machine gone" cut a
// real kill produces (no trainer can reach the server after the cut, so no
// replica can silently diverge).
type chaosStore struct {
	*transport.SimNet
	ops    *atomic.Int64
	doomed bool
	after  int64
}

func (c *chaosStore) dead() bool {
	return c.doomed && c.ops.Add(1) > c.after
}

func (c *chaosStore) errDead() error {
	return fmt.Errorf("train chaos test: server killed")
}

func (c *chaosStore) TryFetch(ids []uint64) ([][]float32, error) {
	if c.dead() {
		return nil, c.errDead()
	}
	return c.SimNet.TryFetch(ids)
}

func (c *chaosStore) TryWrite(ids []uint64, rows [][]float32) error {
	if c.dead() {
		return c.errDead()
	}
	return c.SimNet.TryWrite(ids, rows)
}

// Control gates every control op, as a killed server answers none of them.
func (c *chaosStore) Control(ctl *transport.Ctl) (transport.CtlResult, error) {
	if c.dead() {
		return transport.CtlResult{}, c.errDead()
	}
	return c.SimNet.Control(ctl)
}

func TestLRPPReplicatedTierSurvivesServerDeath(t *testing.T) {
	const P, S, R = 2, 3, 2
	const killAfterOps = 150 // ~20% into the run's tier RPCs: replicas warm, plenty of post-kill traffic

	cfg := tinyConfig()
	cfg.NumTrainers = P

	srvBase := newServer(cfg.Spec, 3)
	base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	tier := newTier(cfg.Spec, S, 3)
	var ops atomic.Int64
	trs := make([]transport.Store, P)
	for i := range trs {
		children := make([]transport.Store, S)
		for s, srv := range tier {
			children[s] = &chaosStore{
				SimNet: transport.NewInProcess(srv),
				ops:    &ops,
				doomed: s == 1,
				after:  killAfterOps,
			}
		}
		trs[i] = transport.NewTier(children, transport.TierOptions{
			Replicate: R,
			Retries:   2,
			Backoff:   time.Millisecond,
		})
	}

	res, err := RunLRPP(cfg, trs, nil)
	if err != nil {
		t.Fatalf("lrpp with a mid-run server death: %v", err)
	}

	// The run must have noticed and survived the death, and said so in the
	// result's tier health.
	if res.Tier == nil {
		t.Fatal("replicated run reported no tier health")
	}
	if res.Tier.Replicate != R || res.Tier.Servers != S {
		t.Fatalf("tier health shape: %+v", res.Tier)
	}
	if len(res.Tier.Dead) != 1 || res.Tier.Dead[0] != 1 {
		t.Fatalf("dead servers %v, want [1]", res.Tier.Dead)
	}
	if res.Tier.Failovers == 0 {
		t.Fatal("no failovers counted: the kill never forced a replica read")
	}

	// The differential property holds across the death: surviving replicas
	// merge to the baseline state, losses bit-identical.
	deadSet := []bool{false, true, false}
	merged, err := embed.MergeTierReplicated(tier, R, deadSet)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, merged); len(d) != 0 {
		t.Fatalf("surviving merged tier diverged from baseline at %d ids (first: %v)", len(d), d[0])
	}
	if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
		t.Fatalf("losses diverged: baseline %v/%v chaos %v/%v",
			base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
	}
}

// TestLRPPServerRejoinMidTraining is the engine-level rejoin leg: the tier
// loses a server mid-run, a pristine recovery-mode replacement comes up,
// and each trainer's Reviver independently re-dials and anti-entropy
// rejoins it — all while the LRPP engine keeps fetching and writing. The
// run must finish, every trainer's tier must end with no down servers, and
// the full tier (rejoiner included, no server excluded as dead) must still
// certify bit-identical to the no-cache baseline. This is the in-test form
// of `bagpipe -trainers P -servers S -replicate 2 -net tcp -kill-server 1
// -restart-server`; under -race it additionally races the resync rounds
// against live trainer traffic.
func TestLRPPServerRejoinMidTraining(t *testing.T) {
	const P, S, R = 2, 3, 2
	const killAfterOps = 150

	cfg := tinyConfig()
	cfg.NumTrainers = P

	srvBase := newServer(cfg.Spec, 3)
	base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// The replacement process: same ctor parameters, pristine state, its
	// live-write marks clear as a respawned -serve's are.
	fresh := newServer(cfg.Spec, 3)

	tier := newTier(cfg.Spec, S, 3)
	var ops atomic.Int64
	tiers := make([]*transport.ShardedStore, P)
	trs := make([]transport.Store, P)
	for i := range trs {
		children := make([]transport.Store, S)
		for s, srv := range tier {
			children[s] = &chaosStore{
				SimNet: transport.NewInProcess(srv),
				ops:    &ops,
				doomed: s == 1,
				after:  killAfterOps,
			}
		}
		tiers[i] = transport.NewTier(children, transport.TierOptions{
			Replicate: R,
			Retries:   2,
			Backoff:   time.Millisecond,
			Jitter:    func(d time.Duration) time.Duration { return 0 },
		})
		trs[i] = tiers[i]
	}

	// One Reviver per trainer, exactly as each worker process runs one:
	// it notices the condemnation, "re-dials" the respawned server, and
	// runs the rejoin concurrently with training.
	revivers := make([]*transport.Reviver, P)
	for i := range revivers {
		st := tiers[i]
		revivers[i] = transport.NewReviver(st, func(s int) (transport.Store, error) {
			if s != 1 {
				return nil, fmt.Errorf("train rejoin test: server %d is not the victim", s)
			}
			return transport.NewInProcess(fresh), nil
		}, transport.RejoinOptions{TransferOptions: transport.TransferOptions{RoundBackoff: 2 * time.Millisecond}}, nil)
	}

	res, err := RunLRPP(cfg, trs, nil)
	if err != nil {
		t.Fatalf("lrpp with a mid-run death and rejoin: %v", err)
	}
	if res.Tier == nil {
		t.Fatal("replicated run reported no tier health")
	}
	if res.Tier.Failovers == 0 {
		t.Fatal("no failovers counted: the kill never forced a replica read")
	}

	// Training is done; any in-flight rejoin now converges against a
	// quiescent tier. Every trainer's client must end with server 1 live.
	deadline := time.Now().Add(10 * time.Second)
	for _, st := range tiers {
		for len(st.DownServers()) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("tier still has down servers %v after training", st.DownServers())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if h := st.TierHealth(); h.Revived == 0 || h.ResyncRows == 0 {
			t.Fatalf("tier health %+v: rejoin never streamed", h)
		}
	}
	for _, rev := range revivers {
		rev.Stop()
	}
	// The differential property now holds over the FULL tier — the
	// rejoined replacement is a first-class member, nobody is dead.
	live := append([]*embed.Server(nil), tier...)
	live[1] = fresh
	merged, err := embed.MergeTierReplicated(live, R, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, merged); len(d) != 0 {
		t.Fatalf("rejoined tier diverged from baseline at %d ids (first: %v)", len(d), d[0])
	}
	if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
		t.Fatalf("losses diverged: baseline %v/%v chaos %v/%v",
			base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
	}
}
