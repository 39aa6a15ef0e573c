package train

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/model"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// orderProbe turns the two scheduling claims of lrppTrainer.iterate into
// dependencies that only the staged order can satisfy, so a regression is a
// deadlock (reported after orderWait) instead of a slower run on some host:
//
//   - trainer 0's BackwardDense of iteration x does not return until
//     trainer 1 has received trainer 0's urgent sync flush of x — possible
//     only if the partials are routed before the dense backward;
//   - trainer 1's replica push for iteration x is held back until trainer
//     0's ForwardDense of x has begun — possible only if the dense forward
//     runs before the replicas are awaited.
//
// It wraps trainer 0's model; spyEndpoint supplies the mesh side.
type orderProbe struct {
	model.Model
	t *testing.T

	urgent   []bool          // iter → trainer 0 owes trainer 1 an urgent partial (from the oracle)
	fwdBegun []chan struct{} // iter → closed as trainer 0's ForwardDense begins
	syncSeen []chan struct{} // iter → closed as trainer 1 receives trainer 0's flush of iter

	failed       atomic.Bool  // a wait timed out: stop waiting, let the run end
	nFwd, nBwd   int          // trainer-0 loop only
	seen         []bool       // trainer 1's receiver only
	heldReplicas atomic.Int64 // replica pushes that waited on fwdBegun
	awaitedSyncs int          // trainer-0 loop only
}

const orderWait = 10 * time.Second

func (p *orderProbe) await(ch chan struct{}, what string, iter int) {
	if p.failed.Load() {
		return
	}
	select {
	case <-ch:
	case <-time.After(orderWait):
		p.failed.Store(true)
		p.t.Errorf("iteration %d: %s never happened: iterate's stages ran in the wrong order", iter, what)
	}
}

func (p *orderProbe) ForwardDense(dense *tensor.Matrix) {
	close(p.fwdBegun[p.nFwd])
	p.nFwd++
	p.Model.ForwardDense(dense)
}

func (p *orderProbe) BackwardDense() {
	x := p.nBwd
	p.nBwd++
	if p.urgent[x] {
		p.await(p.syncSeen[x], "the peer receiving this iteration's urgent flush before BackwardDense returned", x)
		p.awaitedSyncs++
	}
	p.Model.BackwardDense()
}

type spyMesh struct {
	transport.Mesh
	probe *orderProbe
}

func (m spyMesh) Endpoint(rank int) transport.Endpoint {
	return spyEndpoint{m.Mesh.Endpoint(rank), m.probe}
}

type spyEndpoint struct {
	transport.Endpoint
	probe *orderProbe
}

func (e spyEndpoint) Send(to int, bytes int64, payload any) bool {
	if rep, ok := payload.(transport.ReplicaMsg); ok && e.Rank() == 1 && to == 0 {
		e.probe.await(e.probe.fwdBegun[rep.Iter], "trainer 0's ForwardDense beginning before the peer's replica was needed", rep.Iter)
		e.probe.heldReplicas.Add(1)
	}
	return e.Endpoint.Send(to, bytes, payload)
}

func (e spyEndpoint) Recv() (transport.MeshMsg, bool) {
	msg, ok := e.Endpoint.Recv()
	if sb, isSync := msg.Payload.(transport.SyncBatchMsg); ok && isSync && e.Rank() == 1 && msg.From == 0 {
		// The first table for iteration x is the urgent one whenever
		// urgent[x]: the lazy half ships a pass later, and trainer 0 cannot
		// start that pass while its BackwardDense of x waits here.
		for _, f := range sb.Flushes {
			if !e.probe.seen[f.Iter] {
				e.probe.seen[f.Iter] = true
				close(e.probe.syncSeen[f.Iter])
			}
		}
	}
	return msg, ok
}

// TestLRPPStagedOrder certifies the schedule itself, independent of host
// speed: partials flush before the dense backward, and the dense forward
// runs before the replicas are awaited (see orderProbe). At the one-call
// order (Forward after the replica wait, routing after Backward) both
// dependencies are cycles and the test fails by timeout.
func TestLRPPStagedOrder(t *testing.T) {
	for _, fabric := range []string{"inproc", "sim"} {
		t.Run(fabric, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.NumBatches = 24
			n := cfg.NumBatches

			probe := &orderProbe{t: t, urgent: make([]bool, n), seen: make([]bool, n)}
			for i := 0; i < n; i++ {
				probe.fwdBegun = append(probe.fwdBegun, make(chan struct{}))
				probe.syncSeen = append(probe.syncSeen, make(chan struct{}))
			}
			gen := data.NewGenerator(cfg.Spec, cfg.Seed)
			oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, n), cfg.LookAhead, cfg.NumTrainers)
			for d, ok := oracle.Next(); ok; d, ok = oracle.Next() {
				for _, next := range d.Plans(cfg.NumTrainers)[0].RemoteNext {
					if next {
						probe.urgent[d.Iter] = true
					}
				}
			}

			var mesh transport.Mesh = transport.NewInprocMesh(cfg.NumTrainers)
			if fabric == "sim" {
				mesh = transport.NewSimMesh(cfg.NumTrainers, 200*time.Microsecond, 20e6)
			}
			srv := newServer(cfg.Spec, 2)
			_, err := runLRPP(cfg, newStores(srv, cfg.NumTrainers), spyMesh{mesh, probe}, func(tr *lrppTrainer) {
				if tr.p == 0 {
					probe.Model = tr.model
					tr.model = probe
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if probe.nFwd != n || probe.nBwd != n {
				t.Fatalf("probe saw %d dense forwards and %d dense backwards over %d iterations", probe.nFwd, probe.nBwd, n)
			}
			if probe.awaitedSyncs == 0 || probe.heldReplicas.Load() == 0 {
				t.Fatalf("vacuous run: %d urgent flushes awaited, %d replica pushes held", probe.awaitedSyncs, probe.heldReplicas.Load())
			}

			srvBase := newServer(cfg.Spec, 2)
			if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
				t.Fatal(err)
			}
			if d := embed.Diff(srvBase, srv); len(d) != 0 {
				t.Fatalf("probed run diverged from baseline at %d ids", len(d))
			}
		})
	}
}

// TestLRPPMatchesBaselineEveryModel runs the differential over all four
// models: the staged order splits each of them at a different layer, and
// only wd is exercised by the rest of this package and by the benchmark.
func TestLRPPMatchesBaselineEveryModel(t *testing.T) {
	for _, name := range model.Names() {
		for _, P := range []int{1, 2} {
			cfg := tinyConfig()
			cfg.Model = name
			cfg.NumTrainers = P
			cfg.BatchSize = 8 // dlrm and dc are ~3M parameters: keep the race run short
			cfg.NumBatches = 8
			srvBase := newServer(cfg.Spec, 2)
			base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
			if err != nil {
				t.Fatal(err)
			}
			for _, fabric := range []string{"inproc", "sim"} {
				t.Run(fmt.Sprintf("%s_P%d_%s", name, P, fabric), func(t *testing.T) {
					var mesh transport.Mesh
					if fabric == "sim" {
						mesh = transport.NewSimMesh(P, 200*time.Microsecond, 20e6)
					}
					srv := newServer(cfg.Spec, 2)
					res, err := RunLRPP(cfg, newStores(srv, P), mesh)
					if err != nil {
						t.Fatal(err)
					}
					if d := embed.Diff(srvBase, srv); len(d) != 0 {
						t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
					}
					if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
						t.Fatalf("losses diverged: baseline %v/%v lrpp %v/%v", base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
					}
				})
			}
		}
	}
}
