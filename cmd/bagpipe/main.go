// Command bagpipe runs an end-to-end Bagpipe training experiment: the
// Oracle Cacher, per-trainer prefetch, LRPP partitioned caches with
// delayed cross-trainer sync (or the PR-1 shared-cache pipeline), and
// background write-back maintenance, all against a sharded embedding
// server reached through in-process, simulated-network, or real TCP
// transports.
//
// One binary plays every role. With -net inproc|sim everything runs in
// this process (the PR-2 behavior). With -net tcp the system becomes
// genuinely distributed: -servers S embedding-server processes (-serve)
// and P trainer processes (-rank, meshed over -peers, each reaching the
// tier through a sharded store over -server-addrs) speak the
// length-prefixed little-endian protocol of internal/transport; the
// default driver mode forks all of them locally over loopback (-spawn) so
// one command line still runs — and verifies — the whole system.
//
// Examples:
//
//	bagpipe -trainers 4 -verify -batches 30           # single process, certify LRPP vs baseline
//	bagpipe -net sim -net-latency 5ms -net-bw 256e3   # simulated-network benchmark
//	bagpipe -trainers 4 -servers 2 -net tcp -verify   # 4 trainer + 2 server processes over loopback TCP
//	bagpipe -serve -listen :7000 ...                  # manual deployment: one embedding-server process
//	bagpipe -rank 0 -peers host0:7001,host1:7001 -servers 2 \
//	        -server-addrs host8:7000,host9:7000 ...   # one trainer process against a 2-server tier
//
// See README.md for the full flag surface and copy-pasteable recipes, and
// ARCHITECTURE.md for how the processes fit together.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/reshard"
	"bagpipe/internal/serve"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

var (
	dataset      = flag.String("dataset", "criteo-kaggle", "dataset shape: criteo-kaggle, avazu, criteo-terabyte, alibaba")
	scale        = flag.Int64("scale", 10_000, "divide dataset example count and table sizes by this factor")
	modelFl      = flag.String("model", "wd", "model: dlrm, wd, dc, deepfm")
	optFl        = flag.String("opt", "sgd", "optimizer: sgd, momentum, adagrad, adam")
	lr           = flag.Float64("lr", 0.05, "learning rate")
	batchSz      = flag.Int("batch-size", 256, "examples per batch")
	batches      = flag.Int("batches", 50, "number of iterations to train")
	lookahd      = flag.Int("lookahead", 32, "oracle lookahead window in batches (paper default 200)")
	trainers     = flag.Int("trainers", 2, "trainer processes (LRPP cache partitions / data-parallel ranks)")
	engineFl     = flag.String("engine", "lrpp", "training engine: lrpp, pipelined, baseline")
	partFl       = flag.String("partitioner", "hash", "batch partitioner: hash (contiguous split over hash-partitioned caches), roundrobin, comm-aware")
	eager        = flag.Bool("eager-sync", false, "lrpp: flush all cross-trainer sync on the critical path instead of delaying it")
	collFl       = flag.String("collective", "fused", "mesh all-reduce strategy (worker mode): rooted (one frame per dense param), fused (one frame per step), ring (fused frames around the ring), tree (fused frames up/down a log2-P binomial tree); all bit-identical")
	syncComp     = flag.Bool("sync-compress", false, "lrpp: float16-quantize replica pushes on the mesh (lossy; incompatible with -verify)")
	syncCompGrad = flag.Bool("sync-compress-grad", false, "lrpp: float16-quantize delayed-sync gradient flushes, carrying the rounding error per (owner,row) as error feedback (lossy; incompatible with -verify)")
	autoLook     = flag.Bool("auto-lookahead", false, "pick ℒ at startup from measured iteration time, link RTT, and -cache-rows (overrides -lookahead)")
	cacheRws     = flag.Int("cache-rows", 0, "auto-lookahead: trainer cache budget in rows (0 = 1/4 of the scaled table rows)")
	statsFl      = flag.Bool("stats", false, "print per-phase mesh traffic (frames + bytes split by replica/sync/collective/plan)")
	workers      = flag.Int("prefetch-workers", 2, "prefetch worker pool size (pipelined engine)")
	servers      = flag.Int("servers", 1, "embedding servers in the tier (rows sharded across them by id, one process each in TCP mode)")
	replicate    = flag.Int("replicate", 1, "replication factor R: write each row to its owner server plus the next R-1 servers on the ownership ring; reads fail over along the ring when servers die")
	shards       = flag.Int("shards", 4, "shard count within each embedding server")
	embDim       = flag.Int("emb-dim", 0, "override embedding dimension (0 = dataset default)")
	seed         = flag.Uint64("seed", 42, "experiment seed")

	netFl    = flag.String("net", "", "fabric: inproc, sim, tcp (default: the -transport value)")
	transpFl = flag.String("transport", "inproc", "deprecated alias of -net (values: inproc, simnet)")
	netLat   = flag.Duration("net-latency", time.Millisecond, "sim: per-call round-trip latency to the embedding servers")
	netBW    = flag.Float64("net-bw", 1e9, "sim: embedding-server link bandwidth in bytes/sec (0 = infinite)")
	meshLat  = flag.Duration("mesh-latency", 500*time.Microsecond, "lrpp + sim: trainer-to-trainer link latency")
	meshBW   = flag.Float64("mesh-bw", 1e9, "lrpp + sim: trainer-to-trainer link bandwidth in bytes/sec (0 = infinite)")

	serveFl     = flag.Bool("serve", false, "run as the embedding-server process (tcp); requires -listen")
	listen      = flag.String("listen", "", "listen address for -serve, or bind override for a -rank worker")
	rank        = flag.Int("rank", -1, "run as trainer process `rank` (tcp); requires -peers and -server-addr")
	peersFl     = flag.String("peers", "", "comma-separated, rank-ordered trainer mesh addresses (tcp workers)")
	serverAddr  = flag.String("server-addr", "", "deprecated alias of -server-addrs for a one-server tier (tcp workers)")
	serverAddrs = flag.String("server-addrs", "", "comma-separated, server-ordered embedding-tier addresses (tcp workers); must list -servers addresses")
	spawn       = flag.Bool("spawn", true, "tcp driver mode: fork the server and trainer processes locally over loopback")
	killServer  = flag.Int("kill-server", -1, "chaos (tcp driver, lrpp): kill embedding server `K` mid-run; with -replicate >= 2 the run completes and certifies against the baseline")
	killDelay   = flag.Duration("kill-delay", 500*time.Millisecond, "chaos: how long after spawning the trainers to kill the -kill-server target")
	restartFl   = flag.Bool("restart-server", false, "chaos: respawn the -kill-server victim on its old address after -restart-delay and require its anti-entropy rejoin to certify (prints PASS: server K rejoined)")
	restartWait = flag.Duration("restart-delay", 2*time.Second, "chaos: how long after the kill to respawn the -restart-server victim")
	killAfterRj = flag.Int("kill-after-rejoin", -1, "chaos: once every trainer has re-admitted the rejoined server, kill server `K2` too — the rejoiner must then carry their shared partitions alone")
	recoverFl   = flag.Bool("recover", false, "server mode (-serve): start in recovery — live writes are tracked as fresh and shielded from the anti-entropy snapshot until the tier certifies the rejoin and ends recovery")

	reshardTo    = flag.Int("reshard-to", 0, "live reshard (lrpp): migrate the embedding tier to `S2` servers mid-run, per-partition dual-write/verify/cutover, while training and serving continue; the tcp driver spawns the new server processes on a grow and retires them after a shrink (0 disables)")
	reshardDelay = flag.Duration("reshard-delay", 500*time.Millisecond, "reshard: how long after the trainers start before the migration begins")

	serveInfer   = flag.Bool("serve-infer", false, "run the online inference front end against the live training tier (lrpp): local fabrics serve in-process on the trainer's retirement clock, the tcp driver serves from the driver process over its own tier links")
	inferQPS     = flag.Float64("infer-qps", 0, "aggregate offered inference rate across clients (0 = unpaced closed loop)")
	inferClients = flag.Int("infer-clients", 2, "closed-loop inference clients (one goroutine, model replica, and rate bucket each)")
	inferDist    = flag.String("infer-dist", "zipf", "inference key popularity: zipf, drift, hottail, uniform")
	inferStale   = flag.Int64("infer-max-stale", 8, "serving staleness bound in write-back epochs: a cached row is never served once the epoch advances more than this past its fetch")
	inferCache   = flag.Int("infer-cache-rows", 4096, "hot-row cache capacity of the inference front end")
	inferRate    = flag.Float64("infer-rate-limit", 0, "admitted QPS per inference client, enforced by the token bucket (0 disables admission rate limiting)")
	inferP99     = flag.Duration("infer-p99-bound", 250*time.Millisecond, "chaos: the serving-under-chaos PASS requires the lookup p99 within this bound")

	verify   = flag.Bool("verify", false, "also run the no-cache baseline and compare final embedding state bit-for-bit")
	baseline = flag.Bool("baseline", false, "shorthand for -engine baseline")
)

func main() {
	flag.Parse()
	if *baseline {
		*engineFl = "baseline"
	}
	spec, err := specByName(*dataset)
	if err != nil {
		fatal(err)
	}
	if *scale > 1 {
		spec = spec.Scaled(*scale)
	}
	if *embDim > 0 {
		spec = spec.WithEmbDim(*embDim)
	}
	part, err := partitionerByName(*partFl)
	if err != nil {
		fatal(err)
	}
	netName, err := resolveNet()
	if err != nil {
		fatal(err)
	}
	if *netLat < 0 || *netBW < 0 || *meshLat < 0 || *meshBW < 0 {
		fatal(fmt.Errorf("negative -net-latency/-net-bw/-mesh-latency/-mesh-bw"))
	}
	if *servers < 1 {
		fatal(fmt.Errorf("-servers must be at least 1, got %d", *servers))
	}
	if *replicate < 1 || *replicate > *servers {
		fatal(fmt.Errorf("-replicate %d outside [1, %d] (the tier has -servers %d)", *replicate, *servers, *servers))
	}
	if *killServer >= 0 {
		if *killServer >= *servers {
			fatal(fmt.Errorf("-kill-server %d names no server (the tier has -servers %d)", *killServer, *servers))
		}
		// Chaos needs real processes to kill: when the fabric was left at its
		// default, imply the tcp driver instead of rejecting the run.
		if netName != "tcp" && !netExplicit() {
			fmt.Fprintln(os.Stderr, "bagpipe: -kill-server implies the tcp driver; defaulting -net tcp")
			netName = "tcp"
		}
		if netName != "tcp" || *serveFl || *rank >= 0 || *engineFl != "lrpp" {
			fatal(fmt.Errorf("-kill-server is a chaos flag for the lrpp tcp driver (-net tcp -spawn)"))
		}
		// A survived kill is only meaningful if the surviving tier is
		// certified, so chaos implies -verify on the lossless path.
		if !*syncComp && !*syncCompGrad {
			*verify = true
		}
	}
	// The rejoin flags are validated in the driver only: the driver passes
	// -restart-server down to the trainer processes as a hint to wait for an
	// in-flight revival before departing, and those processes carry neither
	// -kill-server nor the rest of the chaos configuration.
	if (*restartFl || *killAfterRj >= 0) && *rank < 0 && !*serveFl {
		if !*restartFl {
			fatal(fmt.Errorf("-kill-after-rejoin requires -restart-server (there is no rejoin to wait for)"))
		}
		if *killServer < 0 {
			fatal(fmt.Errorf("-restart-server requires -kill-server (nothing was killed, nothing can rejoin)"))
		}
		if *replicate < 2 {
			fatal(fmt.Errorf("-restart-server needs -replicate >= 2: an anti-entropy rejoin is sourced from the dead server's surviving replicas"))
		}
		if *syncComp || *syncCompGrad {
			fatal(fmt.Errorf("-restart-server certifies the rejoined server bit-for-bit; the lossy -sync-compress paths cannot"))
		}
		if *killAfterRj >= *servers {
			fatal(fmt.Errorf("-kill-after-rejoin %d names no server (the tier has -servers %d)", *killAfterRj, *servers))
		}
		if *killAfterRj == *killServer {
			fatal(fmt.Errorf("-kill-after-rejoin %d is the -kill-server victim itself; name a different replica", *killAfterRj))
		}
	}
	if *recoverFl && !*serveFl {
		fatal(fmt.Errorf("-recover is a -serve (embedding-server) flag"))
	}
	if *reshardTo < 0 {
		fatal(fmt.Errorf("-reshard-to %d: the target tier width must be positive", *reshardTo))
	}
	// Worker and server processes receive -reshard-to as plumbing (it sizes
	// their tier's spare capacity); the driver validates the migration once.
	if *reshardTo > 0 && *rank < 0 && !*serveFl {
		if *engineFl != "lrpp" {
			fatal(fmt.Errorf("-reshard-to migrates the tier under live lrpp traffic; -engine %s has no reshard form", *engineFl))
		}
		if *reshardTo == *servers {
			fatal(fmt.Errorf("-reshard-to %d: the tier already has -servers %d", *reshardTo, *servers))
		}
		if *reshardTo < *replicate {
			fatal(fmt.Errorf("-reshard-to %d below -replicate %d: each row needs %d distinct servers in its replica ring", *reshardTo, *replicate, *replicate))
		}
		if *restartFl || *killAfterRj >= 0 {
			fatal(fmt.Errorf("-reshard-to cannot be combined with -restart-server/-kill-after-rejoin: a rejoin is refused while the tier reshards"))
		}
		if err := transport.ValidateTierOptions(tierCapacity(), transport.TierOptions{Replicate: *replicate, InitialServers: *servers}); err != nil {
			fatal(err)
		}
		// A migration is only meaningful if the migrated tier is certified,
		// so resharding implies -verify on the lossless path.
		if !*syncComp && !*syncCompGrad {
			*verify = true
		}
	}

	if *serveInfer {
		if *engineFl != "lrpp" {
			fatal(fmt.Errorf("-serve-infer serves over the live lrpp training tier; -engine %s has no serving form", *engineFl))
		}
		if *serveFl || *rank >= 0 {
			fatal(fmt.Errorf("-serve-infer is a driver-side flag; the -serve/-rank worker processes do not host the front end"))
		}
		if *inferClients < 1 {
			fatal(fmt.Errorf("-infer-clients must be at least 1, got %d", *inferClients))
		}
		if _, ok := data.ServingDist(*inferDist); !ok {
			fatal(fmt.Errorf("unknown -infer-dist %q (zipf, drift, hottail, uniform)", *inferDist))
		}
	}

	cfg := train.Config{
		Spec:             spec,
		Seed:             *seed,
		Model:            *modelFl,
		Optimizer:        *optFl,
		LR:               float32(*lr),
		BatchSize:        *batchSz,
		NumBatches:       *batches,
		LookAhead:        *lookahd,
		NumTrainers:      *trainers,
		PrefetchWorkers:  *workers,
		Partitioner:      part,
		SyncEager:        *eager,
		Collective:       *collFl,
		SyncCompress:     *syncComp,
		SyncCompressGrad: *syncCompGrad,
	}
	if *verify && (*syncComp || *syncCompGrad) {
		fatal(fmt.Errorf("-sync-compress/-sync-compress-grad are lossy (float16 wire values); -verify pins the lossless path — drop one of them"))
	}

	switch {
	case *serveFl:
		runServer(spec)
	case *rank >= 0:
		if *autoLook {
			fatal(fmt.Errorf("-auto-lookahead resolves at the driver (every rank must agree on ℒ); pass the driver's -lookahead value instead"))
		}
		runWorker(cfg)
	case netName == "tcp":
		if !*spawn {
			fatal(fmt.Errorf("-net tcp driver mode forks worker processes (-spawn); " +
				"for a manual deployment start one process with -serve -listen and one per trainer with -rank/-peers/-server-addr (recipes in README.md)"))
		}
		runTCPDriver(cfg, spec)
	default:
		runLocal(cfg, spec, netName)
	}
}

// resolveNet folds the deprecated -transport alias into -net.
func resolveNet() (string, error) {
	name := *netFl
	if name == "" {
		name = *transpFl
	}
	switch name {
	case "", "inproc":
		return "inproc", nil
	case "sim", "simnet":
		return "sim", nil
	case "tcp":
		return "tcp", nil
	}
	return "", fmt.Errorf("unknown -net %q (inproc, sim, tcp)", name)
}

// netExplicit reports whether the user named a fabric on the command line
// (-net or the deprecated -transport alias) rather than inheriting defaults.
func netExplicit() bool {
	explicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "net" || f.Name == "transport" {
			explicit = true
		}
	})
	return explicit
}

// newServer builds one embedding server; every role derives the identical
// initial state from the shared flags. All servers of a tier share the
// seed, so a row's initial value depends only on its id — tier splitting is
// deterministic, and S-way state merges back to the S=1 reference
// (embed.MergeTier) for verification.
func newServer(spec *data.Spec) *embed.Server {
	return embed.NewServer(*shards, spec.EmbDim, *seed^0xE, 0.05)
}

// tierCapacity is the backend slot count every tier client provisions: the
// launch width plus any spare slots a -reshard-to grow will route into.
func tierCapacity() int {
	if *reshardTo > *servers {
		return *reshardTo
	}
	return *servers
}

// newServers builds the in-process embedding tier: the -servers S launch
// width plus (with -reshard-to above it) the spare servers a grow migrates
// into. Spares start absent — unrouted, invisible to the data plane — until
// the reshard coordinator admits them.
func newServers(spec *data.Spec) []*embed.Server {
	srvs := make([]*embed.Server, tierCapacity())
	for i := range srvs {
		srvs[i] = newServer(spec)
	}
	return srvs
}

// storeOver assembles one trainer's tier client: one transport per server
// over the chosen local fabric, fanned out through a ShardedStore when the
// tier has more than one server. With -net sim each server sits behind its
// own simulated link — its own NIC in the paper's trainer-node/server-node
// topology — so the scatter's concurrent sub-batches genuinely overlap
// their latencies.
func storeOver(srvs []*embed.Server, netName string) transport.Store {
	children := make([]transport.Store, len(srvs))
	for i, srv := range srvs {
		if netName == "sim" {
			children[i] = transport.NewSimNet(srv, *netLat, *netBW)
		} else {
			children[i] = transport.NewInProcess(srv)
		}
	}
	if len(children) == 1 {
		return children[0]
	}
	topts := transport.TierOptions{Replicate: *replicate}
	if *reshardTo > 0 && len(children) > *servers {
		topts.InitialServers = *servers
	}
	return transport.NewTier(children, topts)
}

// reportFailover is the tier's OnFailover hook in every role: one stderr
// line per server lost, with the error that condemned it.
func reportFailover(server int, cause error) {
	fmt.Fprintf(os.Stderr, "bagpipe: embedding server %d declared dead, failing over to its replicas: %v\n", server, cause)
}

// exitOnTierLoss is the worker-process OnLost hook: when every replica of a
// partition is gone the trainer cannot make progress, so exit with the
// attributed tier error instead of an engine-goroutine panic trace.
func exitOnTierLoss(e *transport.TierError) {
	fmt.Fprintln(os.Stderr, "bagpipe:", e)
	os.Exit(3)
}

// dialStores dials every server of a remote tier and returns the assembled
// store plus the underlying links (the caller closes them; Close is not a
// tier operation). Servers marked in dead are not dialed (their entry in
// links stays nil — close loops must skip it); with -replicate >= 2 a
// server that cannot be dialed is treated the same way, since its
// partitions are covered by replicas until proven otherwise.
//
// Addresses at index >= spareFrom (when 0 < spareFrom < len(addrs)) are
// spare reshard capacity: their server processes may not exist yet, so they
// are not pre-dialed — the tier's Dial hook connects them on demand when a
// routing install (a reshard grow) first references them. A link dialed
// that way lands in the returned slice under the same mutex-free contract:
// callers close links only after the tier has quiesced.
func dialStores(addrs []string, timeout time.Duration, dead []bool, onLost func(*transport.TierError), spareFrom int) (transport.Store, []*transport.TCPLink, error) {
	links := make([]*transport.TCPLink, len(addrs))
	children := make([]transport.Store, len(addrs))
	if dead == nil {
		dead = make([]bool, len(addrs))
	}
	if spareFrom <= 0 || spareFrom > len(addrs) {
		spareFrom = len(addrs)
	}
	var linkMu sync.Mutex
	live := 0
	for i, addr := range addrs[:spareFrom] {
		if dead[i] {
			continue
		}
		link, err := transport.DialTCPLink(addr, timeout)
		if err != nil {
			if *replicate > 1 {
				fmt.Fprintf(os.Stderr, "bagpipe: embedding server %d (%s) unreachable, relying on its replicas: %v\n", i, addr, err)
				dead[i] = true
				continue
			}
			for _, l := range links[:i] {
				if l != nil {
					l.Close()
				}
			}
			return nil, nil, err
		}
		links[i] = link
		children[i] = link
		live++
	}
	if live == 0 {
		return nil, nil, fmt.Errorf("no live embedding server among %s", strings.Join(addrs, ","))
	}
	if len(children) == 1 {
		return children[0], links, nil
	}
	topts := transport.TierOptions{
		Replicate:  *replicate,
		Dead:       dead,
		OnFailover: reportFailover,
		OnLost:     onLost,
	}
	if spareFrom < len(addrs) {
		topts.InitialServers = spareFrom
		topts.Dial = func(s int) (transport.Store, error) {
			link, err := transport.DialTCPLink(addrs[s], timeout)
			if err != nil {
				return nil, err
			}
			linkMu.Lock()
			links[s] = link
			linkMu.Unlock()
			return link, nil
		}
	}
	return transport.NewTier(children, topts), links, nil
}

// tierAddrs resolves the worker-mode server address list, honoring the
// deprecated single-server alias.
func tierAddrs() ([]string, error) {
	list := *serverAddrs
	if list == "" {
		list = *serverAddr
	}
	if list == "" {
		return nil, fmt.Errorf("-rank requires -server-addrs (or -server-addr for a one-server tier)")
	}
	addrs := strings.Split(list, ",")
	if want := tierCapacity(); len(addrs) != want {
		if want != *servers {
			return nil, fmt.Errorf("-server-addrs lists %d addresses for -servers %d with -reshard-to %d (need %d: launch width plus spare capacity)",
				len(addrs), *servers, *reshardTo, want)
		}
		return nil, fmt.Errorf("-server-addrs lists %d addresses for -servers %d", len(addrs), *servers)
	}
	return addrs, nil
}

// resolveAutoLookahead calibrates this machine's per-iteration compute
// time, combines it with the embedding link's round trip and the trainer
// cache budget, and overwrites ℒ — both in cfg and in the flag, so banners
// and forked worker processes all see the resolved value.
func resolveAutoLookahead(cfg *train.Config, rtt time.Duration) {
	iter, err := train.CalibrateIterTime(*cfg, 3)
	if err != nil {
		fatal(err)
	}
	budget := *cacheRws
	if budget <= 0 {
		budget = int(cfg.Spec.TotalRows() / 4)
	}
	if budget < cfg.BatchSize {
		budget = cfg.BatchSize
	}
	l, err := train.AutoLookahead(*cfg, iter, rtt, budget, 256)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("auto-lookahead: iteration ≈ %v, link RTT ≈ %v, budget %d rows → ℒ = %d\n\n",
		iter.Round(time.Microsecond), rtt.Round(time.Microsecond), budget, l)
	cfg.LookAhead = l
	*lookahd = l
}

// memDelta snapshots runtime.MemStats around an engine run so -stats can
// report the hot loop's allocation behavior per iteration — the field
// observation matching the steady-state benchmark's 0 allocs/op gate. The
// per-iteration numbers are dominated by the steady loop but include the
// run's setup (oracle, caches, pools warming), so they are an upper bound.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) report(iters int) {
	if iters <= 0 {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - d.before.Mallocs
	alloced := after.TotalAlloc - d.before.TotalAlloc
	gcs := after.NumGC - d.before.NumGC
	pause := time.Duration(after.PauseTotalNs - d.before.PauseTotalNs)
	fmt.Printf("  mem: %.0f allocs/iter, %.1f KB/iter, %d GC cycles, %v total pause\n",
		float64(allocs)/float64(iters), float64(alloced)/1e3/float64(iters), gcs, pause.Round(10*time.Microsecond))
}

// reportLossDeviation reruns the experiment losslessly in-process and
// prints how far the compressed run's loss curve drifted — the observable
// accuracy cost of the float16 sync/replica modes, which -verify refuses
// to certify bit-for-bit. Worker mode calls this on rank 0 only: the twin
// reproduces the whole multi-trainer run, whose lossless loss is fabric-
// independent by the engine's bit-identity guarantee.
func reportLossDeviation(cfg train.Config, spec *data.Spec, res *train.Result) {
	lossless := cfg
	lossless.SyncCompress = false
	lossless.SyncCompressGrad = false
	srvs := newServers(spec)
	trs := make([]transport.Store, cfg.NumTrainers)
	for i := range trs {
		trs[i] = storeOver(srvs, "inproc")
	}
	ref, err := train.RunLRPP(lossless, trs, nil)
	if err != nil {
		fmt.Printf("  loss-deviation: lossless twin run failed: %v\n", err)
		return
	}
	fmt.Printf("  loss-deviation vs lossless: first %+.3e  last %+.3e  avg %+.3e\n",
		res.FirstLoss-ref.FirstLoss, res.LastLoss-ref.LastLoss, res.AvgLoss-ref.AvgLoss)
}

// runLocal is the single-process driver: every engine and the inproc/sim
// fabrics against an in-process -servers S tier, plus in-process -verify
// (the merged tier state against an unsharded no-cache baseline).
func runLocal(cfg train.Config, spec *data.Spec, netName string) {
	if *autoLook {
		var rtt time.Duration
		if netName == "sim" {
			rtt = *netLat
		}
		resolveAutoLookahead(&cfg, rtt)
	}
	banner(spec, netName)
	runEngine := func(srvs []*embed.Server) (*train.Result, error) {
		switch *engineFl {
		case "baseline":
			return train.RunBaseline(cfg, storeOver(srvs, netName))
		case "pipelined":
			return train.RunPipelined(cfg, storeOver(srvs, netName))
		case "lrpp":
			// One store per trainer: private traffic counters, its own links
			// to the shared tier.
			trs := make([]transport.Store, *trainers)
			for i := range trs {
				trs[i] = storeOver(srvs, netName)
			}
			var mesh transport.Mesh
			if netName == "sim" {
				mesh = transport.NewSimMesh(*trainers, *meshLat, *meshBW)
			}
			if *serveInfer {
				return runLRPPServing(cfg, spec, srvs, trs, mesh, netName)
			}
			return train.RunLRPP(cfg, trs, mesh)
		}
		return nil, fmt.Errorf("unknown engine %q", *engineFl)
	}

	srvs := newServers(spec)
	// The reshard coordinator is its own tier client over the same servers:
	// it waits out -reshard-delay, then migrates the live tier to -reshard-to
	// while the trainers keep writing through their own clients (which adopt
	// the new routing through the per-op stale-routing fence).
	var (
		reshardRep  *reshard.Report
		reshardErr  error
		reshardDone chan struct{}
	)
	var coord *transport.ShardedStore
	if *reshardTo > 0 {
		c, ok := storeOver(srvs, netName).(*transport.ShardedStore)
		if !ok {
			fatal(fmt.Errorf("-reshard-to needs a sharded tier client"))
		}
		coord = c
		reshardDone = make(chan struct{})
		go func() {
			defer close(reshardDone)
			time.Sleep(*reshardDelay)
			reshardRep, reshardErr = reshard.Run(coord, reshard.Options{
				To:  *reshardTo,
				Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
			})
		}()
	}
	md := startMemDelta()
	res, err := runEngine(srvs)
	if err != nil {
		fatal(err)
	}
	finalS := *servers
	if reshardDone != nil {
		<-reshardDone
		if reshardErr != nil {
			// An aborted migration rolled the routing back to the launch
			// width and shed the streamed rows; either way the user asked for
			// a reshard and did not get one — exit with the attributed error.
			fatal(reshardErr)
		}
		finalS = *reshardTo
		fmt.Printf("reshard: tier resharded %d -> %d in %d routing epochs (%d partitions, %d rows, %.2f MB streamed)\n",
			*servers, finalS, reshardRep.Epochs, reshardRep.Parts, reshardRep.Rows, float64(reshardRep.Bytes)/1e6)
		// The stream counters live in the coordinator's client, not the
		// trainers'; fold them into the run's tier snapshot so -stats shows
		// the migration's real progress numbers.
		if res.Tier != nil {
			ch := coord.TierHealth()
			if ch.ReshardParts > res.Tier.ReshardParts {
				res.Tier.ReshardParts = ch.ReshardParts
			}
			if ch.ReshardRows > res.Tier.ReshardRows {
				res.Tier.ReshardRows = ch.ReshardRows
			}
			if ch.ReshardBytes > res.Tier.ReshardBytes {
				res.Tier.ReshardBytes = ch.ReshardBytes
			}
			if ch.RoutingEpoch > res.Tier.RoutingEpoch {
				res.Tier.RoutingEpoch = ch.RoutingEpoch
			}
		}
	}
	report(res)
	if *statsFl {
		md.report(res.Iters)
		if *engineFl == "lrpp" && (cfg.SyncCompress || cfg.SyncCompressGrad) {
			reportLossDeviation(cfg, spec, res)
		}
		if *engineFl == "lrpp" && *serveInfer {
			reportInterference(cfg, spec, netName, res)
		}
	}

	if *verify {
		if *engineFl == "baseline" {
			fatal(fmt.Errorf("-verify compares against the baseline; pick -engine lrpp or pipelined"))
		}
		fmt.Println("\n--- verify: rerunning with the no-cache fetch-per-batch baseline (one-server reference tier) ---")
		srvBase := newServer(spec)
		baseRes, err := train.RunBaseline(cfg, storeOver([]*embed.Server{srvBase}, netName))
		if err != nil {
			fatal(err)
		}
		report(baseRes)
		// Merge only the final routed width: after a shrink the retired
		// servers still hold their stale pre-migration partitions, and after
		// a grow the migrated rows live on the new servers — finalS is where
		// the routing settled.
		merged, err := embed.MergeTierReplicated(srvs[:finalS], *replicate, nil)
		if err != nil {
			fatal(err)
		}
		diff := embed.Diff(srvBase, merged)
		if len(diff) != 0 {
			fatal(fmt.Errorf("FAIL: embedding state differs at %d ids (first %v)", len(diff), diff[0]))
		}
		fmt.Printf("\nPASS: %s over %d server(s) and baseline embedding state bit-identical across %d materialized rows\n",
			*engineFl, finalS, len(merged.MaterializedIDs()))
		if res.Elapsed < baseRes.Elapsed {
			fmt.Printf("%s speedup over baseline: %.2fx\n",
				*engineFl, baseRes.Elapsed.Seconds()/res.Elapsed.Seconds())
		}
		if *reshardTo > 0 {
			fmt.Printf("\nPASS: tier resharded %d -> %d: migrated tier certified bit-identical to the no-cache baseline across %d materialized rows\n",
				*servers, finalS, len(merged.MaterializedIDs()))
		}
	}
}

// newFrontend assembles the inference front end from the -infer-* flags
// over the given read face of the tier.
func newFrontend(store transport.ReadStore, spec *data.Spec, epoch serve.EpochSource) (*serve.Frontend, error) {
	return serve.New(serve.Config{
		Store:         store,
		Spec:          spec,
		Model:         *modelFl,
		Seed:          *seed,
		Epoch:         epoch,
		MaxStale:      *inferStale,
		CacheRows:     *inferCache,
		Clients:       *inferClients,
		RatePerClient: *inferRate,
		// The breaker covers every slot a reshard can route reads into, not
		// just the launch width.
		Servers: tierCapacity(),
	})
}

// loadConfig assembles the load generator's run; the Duration is effectively
// unbounded because the stop channel (training completion) ends the run.
func loadConfig(fe *serve.Frontend, spec *data.Spec) serve.LoadConfig {
	return serve.LoadConfig{
		Frontend: fe,
		Spec:     spec,
		Seed:     *seed ^ 0x5E,
		Clients:  *inferClients,
		QPS:      *inferQPS,
		Dist:     *inferDist,
		Duration: 24 * time.Hour,
	}
}

// reportServe prints the serving block — load accounting, latency/shed
// summary, consistency audit — and returns an error if the run served
// nothing or the audit rejected it.
func reportServe(fe *serve.Frontend, lr serve.LoadResult) error {
	fmt.Println()
	fmt.Println(lr)
	fmt.Println(fe.Stats())
	audit := fe.Audit()
	fmt.Println(audit)
	if !audit.Clean() {
		return fmt.Errorf("FAIL: serving consistency audit rejected the run: %v", audit)
	}
	if lr.Served == 0 {
		return fmt.Errorf("FAIL: the load generator served zero queries")
	}
	return nil
}

// runLRPPServing trains and serves concurrently over the same in-process
// tier: the trainers' retirement clock (train.Progress) is the front end's
// epoch source, and the load generator stops when training finishes.
func runLRPPServing(cfg train.Config, spec *data.Spec, srvs []*embed.Server, trs []transport.Store, mesh transport.Mesh, netName string) (*train.Result, error) {
	prog := train.NewProgress(cfg.NumTrainers)
	cfg.Progress = prog
	feStore := storeOver(srvs, netName)
	fe, err := newFrontend(transport.AsReadStore(feStore), spec, prog)
	if err != nil {
		return nil, err
	}
	if tier, ok := feStore.(*transport.ShardedStore); ok && *reshardTo > 0 {
		// Follow the migration's routing-epoch bumps: each install flushes
		// the hot-row cache so no row is served under the predecessor's
		// ownership map.
		tier.SubscribeRouting(fe.NotifyRouting)
	}
	trainDone := make(chan struct{})
	loadDone := make(chan struct{})
	var lr serve.LoadResult
	var loadErr error
	go func() {
		defer close(loadDone)
		lr, loadErr = serve.RunLoad(loadConfig(fe, spec), trainDone)
	}()
	res, err := train.RunLRPP(cfg, trs, mesh)
	close(trainDone)
	<-loadDone
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	if err := reportServe(fe, lr); err != nil {
		return nil, err
	}
	return res, nil
}

// reportInterference reruns the identical training config with serving off
// and prints the throughput the serving load cost — the CLI view of
// BenchmarkServeInterference, behind -stats because it doubles the run.
func reportInterference(cfg train.Config, spec *data.Spec, netName string, res *train.Result) {
	solo := cfg
	solo.Progress = nil
	srvs := newServers(spec)
	trs := make([]transport.Store, cfg.NumTrainers)
	for i := range trs {
		trs[i] = storeOver(srvs, netName)
	}
	var mesh transport.Mesh
	if netName == "sim" {
		mesh = transport.NewSimMesh(cfg.NumTrainers, *meshLat, *meshBW)
	}
	ref, err := train.RunLRPP(solo, trs, mesh)
	if err != nil {
		fmt.Printf("  interference: serving-free twin run failed: %v\n", err)
		return
	}
	fmt.Printf("  interference: train %.0f ex/s under serving vs %.0f ex/s alone (%+.1f%%)\n",
		res.Throughput(), ref.Throughput(), 100*(res.Throughput()-ref.Throughput())/ref.Throughput())
}

// runServer is the embedding-server process: serve until a client sends the
// shutdown op.
func runServer(spec *data.Spec) {
	if *listen == "" {
		fatal(fmt.Errorf("-serve requires -listen"))
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := newServer(spec)
	if *recoverFl {
		// A respawned chaos victim: rows a tier client writes from here on
		// are fresh and win over the anti-entropy snapshot; the tier ends
		// recovery once the rejoin certifies.
		srv.BeginRecovery()
	}
	mode := ""
	if *recoverFl {
		mode = " (recovery mode)"
	}
	fmt.Printf("embedding server: %d shards, dim %d, listening on %s%s\n",
		*shards, spec.EmbDim, lis.Addr(), mode)
	if err := transport.ServeEmbed(lis, srv); err != nil {
		fatal(err)
	}
	fmt.Println("embedding server: shutdown")
}

// runWorker is one trainer process of a distributed LRPP run: it meshes
// with its peers and reaches the embedding tier through one TCPLink per
// server, sharded by a ShardedStore when the tier is multi-server.
func runWorker(cfg train.Config) {
	if *engineFl != "lrpp" {
		fatal(fmt.Errorf("-rank runs the lrpp engine; -engine %s has no multi-trainer-process form (drop -rank, or use the tcp driver which runs it against a remote tier)", *engineFl))
	}
	if *peersFl == "" {
		fatal(fmt.Errorf("-rank requires -peers"))
	}
	saddrs, err := tierAddrs()
	if err != nil {
		fatal(err)
	}
	addrs := strings.Split(*peersFl, ",")
	if len(addrs) != cfg.NumTrainers {
		fatal(fmt.Errorf("-peers lists %d addresses for %d trainers", len(addrs), cfg.NumTrainers))
	}
	var lis net.Listener
	if *listen != "" {
		if lis, err = net.Listen("tcp", *listen); err != nil {
			fatal(err)
		}
	}
	mesh, err := transport.NewTCPMesh(*rank, addrs, lis)
	if err != nil {
		fatal(err)
	}
	store, links, err := dialStores(saddrs, 30*time.Second, nil, exitOnTierLoss, *servers)
	if err != nil {
		mesh.Shutdown() // depart cleanly so peers see a goodbye, not a crash
		fatal(err)
	}
	// A replicated tier gets a reviver: dead servers — killed mid-run or
	// unreachable when dialStores first tried them — are re-dialed on a poll
	// and brought back through the anti-entropy rejoin, concurrent with
	// training. Links the reviver dials belong to the tier's slots, not the
	// dialStores list, so they are tracked and closed separately.
	var (
		rev      *transport.Reviver
		revMu    sync.Mutex
		revLinks []*transport.TCPLink
	)
	tier, isTier := store.(*transport.ShardedStore)
	if isTier && *replicate > 1 {
		rev = transport.NewReviver(tier, func(s int) (transport.Store, error) {
			link, err := transport.DialTCPLink(saddrs[s], time.Second)
			if err != nil {
				return nil, err
			}
			revMu.Lock()
			revLinks = append(revLinks, link)
			revMu.Unlock()
			return link, nil
		}, transport.RejoinOptions{}, func(s int, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "bagpipe: rejoin of embedding server %d failed (will retry): %v\n", s, err)
				return
			}
			fmt.Fprintf(os.Stderr, "bagpipe: rejoined embedding server %d (resynced into the live tier)\n", s)
		})
	}
	md := startMemDelta()
	res, err := train.RunLRPPWorker(cfg, *rank, store, mesh)
	if err != nil {
		mesh.Shutdown()
		fatal(err)
	}
	if rev != nil {
		if *restartFl {
			// The driver told us a killed server is coming back: give the
			// revival a bounded chance to land (and this rank's forwarded
			// writes with it) before departing, so the driver's rejoin
			// certification sees every trainer's updates on the rejoiner.
			deadline := time.Now().Add(20 * time.Second)
			for time.Now().Before(deadline) {
				if tier.TierHealth().Revived > 0 || len(tier.DownServers()) == 0 {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
		rev.Stop() // waits out any in-flight rejoin before we start closing
	}
	report(res)
	if *statsFl {
		md.report(res.Iters)
		if *rank == 0 && (cfg.SyncCompress || cfg.SyncCompressGrad) {
			reportLossDeviation(cfg, cfg.Spec, res)
		}
	}
	mesh.Shutdown()
	for _, l := range links {
		if l != nil {
			l.Close()
		}
	}
	revMu.Lock()
	for _, l := range revLinks {
		l.Close()
	}
	revMu.Unlock()
}

// runTCPDriver forks the whole distributed system locally: -servers S
// embedding-server processes plus (for the lrpp engine) one process per
// trainer, all on loopback TCP — then optionally certifies the remote tier
// state against a local baseline run, exactly as the in-process -verify
// does, by restoring every server's checkpoint and merging the tier.
func runTCPDriver(cfg train.Config, spec *data.Spec) {
	banner(spec, "tcp")
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	// Reserve addresses for the full tier capacity: a -reshard-to grow
	// spawns its spare server processes mid-run on addresses every tier
	// client already knows.
	capacity := tierCapacity()
	ports, err := freeLoopbackAddrs(capacity + *trainers)
	if err != nil {
		fatal(err)
	}
	srvAddrs, meshAddrs := ports[:capacity], ports[capacity:]

	// commonArgs reads the flags at call time: the server is spawned before
	// -auto-lookahead resolves ℒ (it needs the server up to measure the link
	// RTT), the trainers after — every rank must see the resolved value.
	commonArgs := func() []string {
		return []string{
			"-net", "tcp",
			"-dataset", *dataset,
			"-scale", fmt.Sprint(*scale),
			"-model", *modelFl,
			"-opt", *optFl,
			"-lr", fmt.Sprint(*lr),
			"-batch-size", fmt.Sprint(*batchSz),
			"-batches", fmt.Sprint(*batches),
			"-lookahead", fmt.Sprint(*lookahd),
			"-trainers", fmt.Sprint(*trainers),
			"-partitioner", *partFl,
			fmt.Sprintf("-eager-sync=%v", *eager),
			"-collective", *collFl,
			fmt.Sprintf("-sync-compress=%v", *syncComp),
			fmt.Sprintf("-sync-compress-grad=%v", *syncCompGrad),
			fmt.Sprintf("-stats=%v", *statsFl),
			"-servers", fmt.Sprint(*servers),
			"-replicate", fmt.Sprint(*replicate),
			"-reshard-to", fmt.Sprint(*reshardTo),
			"-shards", fmt.Sprint(*shards),
			"-emb-dim", fmt.Sprint(*embDim),
			"-seed", fmt.Sprint(*seed),
		}
	}
	// fatal would bypass deferred cleanup (os.Exit); every failure after the
	// first spawn must go through die — including a failed spawn mid-loop,
	// which would otherwise orphan the processes already started. The spawn
	// list is mutex-guarded because the -restart-server chaos goroutine
	// respawns the victim while the main goroutine may be tearing down.
	var (
		spawnMu sync.Mutex
		spawned []*exec.Cmd
	)
	killSpawned := func() {
		spawnMu.Lock()
		procs := append([]*exec.Cmd(nil), spawned...)
		spawnMu.Unlock()
		for _, proc := range procs {
			if proc.Process != nil {
				proc.Process.Kill()
			}
		}
		// Reap what was just killed: Kill without Wait leaves zombies that
		// accumulate across a chaos-test loop (the driver process lives on).
		// Wait errors are expected here — killed children exit non-zero, and
		// cleanly finished ones were already reaped by the happy path.
		for _, proc := range procs {
			if proc.Process != nil {
				proc.Wait()
			}
		}
	}
	die := func(err error) {
		killSpawned()
		fatal(err)
	}
	// startProc forks one child; a non-nil tee additionally receives the
	// child's raw (unprefixed) stderr — the driver's rejoin-marker watch.
	startProc := func(tag string, tee io.Writer, extra ...string) *exec.Cmd {
		cmd := exec.Command(exe, append(commonArgs(), extra...)...)
		cmd.Stdout = newPrefixWriter(os.Stdout, "["+tag+"] ")
		var serr io.Writer = newPrefixWriter(os.Stderr, "["+tag+"] ")
		if tee != nil {
			serr = io.MultiWriter(serr, tee)
		}
		cmd.Stderr = serr
		if err := cmd.Start(); err != nil {
			die(fmt.Errorf("spawn %s: %w", tag, err))
		}
		spawnMu.Lock()
		spawned = append(spawned, cmd)
		spawnMu.Unlock()
		return cmd
	}
	defer killSpawned() // no-op after a clean Wait; covers panics

	// serverProcs spans the full capacity; only the launch width is spawned
	// here — a grow's spares are spawned by the reshard goroutine mid-run.
	serverProcs := make([]*exec.Cmd, capacity)
	for s := 0; s < *servers; s++ {
		serverProcs[s] = startProc(fmt.Sprintf("server %d", s), nil, "-serve", "-listen", srvAddrs[s])
	}
	var procs []*exec.Cmd

	if *autoLook {
		// Measure the real tier round trip against the freshly spawned
		// servers (a fingerprint is one scatter/gather RPC round: with S
		// servers it completes when the slowest link answers, which is the
		// latency the ℒ window must cover), then resolve ℒ once here; the
		// trainers inherit the concrete -lookahead value. The probe times a
		// control frame, not a payload: on bandwidth-constrained links the
		// resolved ℒ is a floor — it covers propagation but not the fetch's
		// serialization time, so heavily congested links may still want a
		// hand-tuned, deeper -lookahead.
		store, links, err := dialStores(srvAddrs[:*servers], 30*time.Second, nil, nil, 0)
		if err != nil {
			die(err)
		}
		store.Fingerprint() // warm the connections and the servers' shard walks
		const pings = 3
		t0 := time.Now()
		for i := 0; i < pings; i++ {
			store.Fingerprint()
		}
		rtt := time.Since(t0) / pings
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
		resolveAutoLookahead(&cfg, rtt)
	}

	// The rejoin-marker watch: each trainer prints one "rejoined embedding
	// server K" stderr line when its tier re-admits the respawned victim.
	// Once every trainer has, the rejoin is fully certified tier-wide — the
	// moment the -kill-after-rejoin double-chaos kill is allowed to fire
	// (killing the peer earlier could destroy the only good copy of the
	// partitions the rejoiner is still resyncing).
	var (
		rejoinMarks atomic.Int64
		peerKilled  atomic.Bool
		respawnCh   chan *exec.Cmd
	)
	var markWatch io.Writer
	if *restartFl {
		markWatch = &lineWatch{
			match: []byte(fmt.Sprintf("rejoined embedding server %d", *killServer)),
			fire: func() {
				if int(rejoinMarks.Add(1)) != *trainers || *killAfterRj < 0 || peerKilled.Swap(true) {
					return
				}
				fmt.Fprintf(os.Stderr, "chaos: all %d trainers re-admitted server %d; killing its replica peer %d\n",
					*trainers, *killServer, *killAfterRj)
				if p := serverProcs[*killAfterRj].Process; p != nil {
					p.Kill()
				}
			},
		}
	}

	// The reshard coordinator runs in the driver over its own tier links,
	// concurrent with the trainer processes; their clients adopt each routing
	// epoch through the servers' stale-routing fences.
	var (
		reshardRep   *reshard.Report
		reshardErr   error
		reshardDone  chan struct{}
		reshardLinks []*transport.TCPLink
	)
	if *engineFl == "lrpp" {
		fmt.Printf("spawned %d embedding server(s) at %s; spawning %d trainer processes\n\n",
			*servers, strings.Join(srvAddrs[:*servers], ","), *trainers)
		for p := 0; p < *trainers; p++ {
			targs := []string{
				"-rank", fmt.Sprint(p),
				"-peers", strings.Join(meshAddrs, ","),
				"-server-addrs", strings.Join(srvAddrs, ","),
			}
			if *restartFl {
				targs = append(targs, "-restart-server") // wait hint: a revival is coming
			}
			procs = append(procs, startProc(fmt.Sprintf("trainer %d", p), markWatch, targs...))
		}
		// The serving leg lives in the driver process, on its own tier links,
		// while the trainer processes mutate the tier. The front end cannot
		// see the trainers' retirement clock from here, so the staleness
		// bound is denominated in wall-clock ticker epochs instead.
		var (
			infFE    *serve.Frontend
			infLinks []*transport.TCPLink
			infRes   serve.LoadResult
			infErr   error
			infDone  chan struct{}
			infStop  chan struct{}
			infRev   *transport.Reviver
			infMu    sync.Mutex
		)
		if *serveInfer {
			store, links, err := dialStores(srvAddrs, 30*time.Second, nil, nil, *servers)
			if err != nil {
				die(err)
			}
			infLinks = links
			infFE, err = newFrontend(transport.AsReadStore(store), spec, serve.NewTickerEpoch(100*time.Millisecond))
			if err != nil {
				die(err)
			}
			if tier, ok := store.(*transport.ShardedStore); ok && *reshardTo > 0 {
				// Follow the migration: every routing-epoch install flushes
				// the hot-row cache so no row is served under the
				// predecessor's ownership map.
				front := infFE
				tier.SubscribeRouting(func(epoch uint64) {
					front.NotifyRouting(epoch)
					fmt.Fprintf(os.Stderr, "serve: adopted routing epoch %d, hot-row cache flushed\n", epoch)
				})
			}
			if tier, ok := store.(*transport.ShardedStore); ok && *restartFl {
				// The front end never writes, so its rejoin is verify-only: it
				// waits for the respawned server's partitions to match the
				// live holders' digests (some trainer owns the actual
				// transfer) before re-admitting it to the read ring — and the
				// revival tells the circuit breaker to probe the server
				// immediately instead of sitting out its cooldown.
				front := infFE
				tier.SubscribeRevived(func(s int) {
					front.NotifyRevived(s)
					fmt.Fprintf(os.Stderr, "serve: embedding server %d verified and re-admitted to the read path\n", s)
				})
				infRev = transport.NewReviver(tier, func(s int) (transport.Store, error) {
					link, err := transport.DialTCPLink(srvAddrs[s], time.Second)
					if err != nil {
						return nil, err
					}
					infMu.Lock()
					infLinks = append(infLinks, link)
					infMu.Unlock()
					return link, nil
				}, transport.RejoinOptions{VerifyOnly: true}, nil)
			}
			infStop = make(chan struct{})
			infDone = make(chan struct{})
			go func() {
				defer close(infDone)
				infRes, infErr = serve.RunLoad(loadConfig(infFE, spec), infStop)
			}()
		}
		if *killServer >= 0 {
			if *restartFl {
				respawnCh = make(chan *exec.Cmd, 1)
			}
			// The chaos arm: kill one embedding server while the trainers
			// run. Kill only — reaping stays on the main goroutine (the final
			// server Wait loop), so no two goroutines ever Wait on one child.
			// With -restart-server the same goroutine then respawns the victim
			// on its old address, in recovery mode; the main goroutine adopts
			// the new process handle through respawnCh before it next touches
			// serverProcs[*killServer].
			go func() {
				time.Sleep(*killDelay)
				fmt.Fprintf(os.Stderr, "chaos: killing embedding server %d (%v after trainer spawn)\n", *killServer, *killDelay)
				if p := serverProcs[*killServer].Process; p != nil {
					p.Kill()
				}
				if respawnCh != nil {
					time.Sleep(*restartWait)
					fmt.Fprintf(os.Stderr, "chaos: respawning embedding server %d on %s in recovery mode (%v after the kill)\n",
						*killServer, srvAddrs[*killServer], *restartWait)
					respawnCh <- startProc(fmt.Sprintf("server %d", *killServer), nil,
						"-serve", "-listen", srvAddrs[*killServer], "-recover")
				}
			}()
		}
		if *reshardTo > 0 {
			reshardDone = make(chan struct{})
			go func() {
				defer close(reshardDone)
				time.Sleep(*reshardDelay)
				// A grow spawns its target server processes now, mid-run; the
				// coordinator's EnsureServer retries cover their boot time.
				// (These slots are disjoint from the chaos goroutine's victim,
				// which is always inside the launch width.)
				for s := *servers; s < *reshardTo; s++ {
					fmt.Fprintf(os.Stderr, "reshard: spawning embedding server %d on %s\n", s, srvAddrs[s])
					serverProcs[s] = startProc(fmt.Sprintf("server %d", s), nil, "-serve", "-listen", srvAddrs[s])
				}
				coord, links, err := dialStores(srvAddrs, 30*time.Second, nil, nil, *servers)
				if err != nil {
					reshardErr = err
					return
				}
				reshardLinks = links
				tier, ok := coord.(*transport.ShardedStore)
				if !ok {
					reshardErr = fmt.Errorf("-reshard-to needs a sharded tier client")
					return
				}
				reshardRep, reshardErr = reshard.Run(tier, reshard.Options{
					To:  *reshardTo,
					Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
				})
			}()
		}
		failed := false
		for p, proc := range procs {
			if err := proc.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "bagpipe: trainer %d: %v\n", p, err)
				failed = true
			}
		}
		if *serveInfer {
			close(infStop)
			<-infDone
			if infRev != nil {
				infRev.Stop()
			}
			for _, l := range infLinks {
				if l != nil {
					l.Close()
				}
			}
			if infErr != nil {
				die(infErr)
			}
			if err := reportServe(infFE, infRes); err != nil {
				die(err)
			}
			if *killServer >= 0 {
				st := infFE.Stats()
				if st.LookupP99 > *inferP99 {
					die(fmt.Errorf("FAIL: serving under chaos: lookup p99 %v exceeds the -infer-p99-bound %v", st.LookupP99, *inferP99))
				}
				fmt.Printf("\nPASS: serving under chaos: %d queries served across the kill of server %d, lookup p99 %v within %v, audit clean\n",
					infRes.Served, *killServer, st.LookupP99, *inferP99)
			}
		}
		if failed {
			die(fmt.Errorf("trainer process failed"))
		}
	} else {
		// baseline/pipelined are single-trainer-process engines: run the
		// engine here, against the remote embedding tier.
		tr, links, err := dialStores(srvAddrs, 30*time.Second, nil, nil, 0)
		if err != nil {
			die(err)
		}
		var res *train.Result
		switch *engineFl {
		case "baseline":
			res, err = train.RunBaseline(cfg, tr)
		case "pipelined":
			res, err = train.RunPipelined(cfg, tr)
		default:
			err = fmt.Errorf("unknown engine %q", *engineFl)
		}
		if err != nil {
			die(err)
		}
		report(res)
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	}

	// Join the migration before any post-run certification: the tier's final
	// width is wherever the routing settled. An aborted or failed migration
	// is a run failure — the routing rolled back and the streamed rows were
	// shed, but the user asked for a reshard and did not get one.
	finalS := *servers
	if reshardDone != nil {
		<-reshardDone
		for _, l := range reshardLinks {
			if l != nil {
				l.Close()
			}
		}
		if reshardErr != nil {
			die(reshardErr)
		}
		finalS = *reshardTo
		fmt.Printf("reshard: tier resharded %d -> %d in %d routing epochs (%d partitions, %d rows, %.2f MB streamed)\n",
			*servers, finalS, reshardRep.Epochs, reshardRep.Parts, reshardRep.Rows, float64(reshardRep.Bytes)/1e6)
	}

	// The post-run control store must not dial the chaos victim: it is dead
	// by design (and if the run outpaced -kill-delay, make it dead now, or
	// the final Wait below would block on a server nobody will shut down).
	// With -restart-server the victim is alive again, but its state is only
	// trustworthy once a rejoin has certified it: if the trainers' mid-run
	// rejoin already did (proven by the marker count that gates the
	// double-chaos kill), the control tier admits it live; otherwise it
	// starts out dead here and the driver runs the anti-entropy rejoin
	// itself below.
	var ctlDead []bool
	if *killServer >= 0 {
		ctlDead = make([]bool, finalS)
		if !*restartFl {
			if p := serverProcs[*killServer].Process; p != nil {
				p.Kill()
			}
			// After a shrink the victim may sit outside the final width —
			// retired from routing entirely, nothing to mark.
			if *killServer < finalS {
				ctlDead[*killServer] = true
			}
		} else {
			serverProcs[*killServer] = <-respawnCh // adopt the respawned handle
			if peerKilled.Load() {
				ctlDead[*killAfterRj] = true
			} else {
				ctlDead[*killServer] = true
			}
		}
	}
	ctl, ctlLinks, err := dialStores(srvAddrs[:finalS], 10*time.Second, ctlDead, func(e *transport.TierError) {
		killSpawned()
		fatal(e)
	}, 0)
	if err != nil {
		die(err)
	}
	if *restartFl && !peerKilled.Load() {
		// Driver-side rejoin: idempotent when the trainers already brought
		// the victim back mid-run, and the only path when the run finished
		// before the respawn. Sourced from the surviving replicas, certified
		// partition by partition, then (for the double-chaos run that never
		// saw every trainer rejoin mid-run) the peer kill fires here, after
		// certification — the rejoiner must carry their shared partitions
		// alone.
		tier, ok := ctl.(*transport.ShardedStore)
		if !ok {
			die(fmt.Errorf("-restart-server needs a multi-server tier"))
		}
		link, err := transport.DialTCPLink(srvAddrs[*killServer], 10*time.Second)
		if err != nil {
			die(fmt.Errorf("re-dial respawned server %d: %w", *killServer, err))
		}
		if err := tier.Rejoin(*killServer, link, transport.RejoinOptions{}); err != nil {
			link.Close()
			die(fmt.Errorf("rejoin of server %d: %w", *killServer, err))
		}
		ctlLinks[*killServer] = link
		fmt.Fprintf(os.Stderr, "bagpipe: server %d resynced and re-admitted to the control tier\n", *killServer)
		if *killAfterRj >= 0 && !peerKilled.Swap(true) {
			fmt.Fprintf(os.Stderr, "chaos: killing embedding server %d now that server %d rejoined\n", *killAfterRj, *killServer)
			if p := serverProcs[*killAfterRj].Process; p != nil {
				p.Kill()
			}
			// One throwaway tier op lets the failover machinery discover the
			// death and settle the membership before the checkpoint snapshot.
			ctl.Fingerprint()
		}
	}
	if *verify {
		if *engineFl == "baseline" {
			die(fmt.Errorf("-verify compares against the baseline; pick -engine lrpp or pipelined"))
		}
		fmt.Println("\n--- verify: fetching remote tier checkpoints, rerunning the no-cache baseline locally ---")
		// The restore's dead-set must match the membership the checkpoint was
		// actually taken under — which the rejoin (server back in) and the
		// double-chaos kill (peer out) may both have moved since dial time —
		// so read it off the tier rather than reusing the dial-time slice.
		deadNow := ctlDead
		if tier, ok := ctl.(*transport.ShardedStore); ok {
			deadNow = make([]bool, finalS)
			for _, s := range tier.DownServers() {
				deadNow[s] = true
			}
		}
		remote, err := embed.RestoreTierReplicated(bytes.NewReader(ctl.Checkpoint()), finalS, *shards, *replicate, deadNow)
		if err != nil {
			die(fmt.Errorf("restore remote tier checkpoint: %w", err))
		}
		srvBase := newServer(spec)
		baseRes, err := train.RunBaseline(cfg, transport.NewInProcess(srvBase))
		if err != nil {
			die(err)
		}
		report(baseRes)
		diff := embed.Diff(srvBase, remote)
		if len(diff) != 0 {
			die(fmt.Errorf("FAIL: remote embedding state differs at %d ids (first %v)", len(diff), diff[0]))
		}
		if *replicate > 1 {
			// Second, independent certificate: the live tier's wire
			// fingerprint (per-partition sums from each partition's first
			// live replica) must match the baseline server's — proving the
			// failover read path, not just the checkpoints, sees the
			// surviving state.
			if fp, ref := ctl.Fingerprint(), srvBase.Fingerprint(); fp != ref {
				die(fmt.Errorf("FAIL: surviving tier fingerprint %x != baseline %x", fp, ref))
			}
		}
		if *restartFl {
			// The rejoin certificate: every partition the revived server
			// holds, fingerprinted over its own link (not the tier's failover
			// routing), must be bit-identical to the no-cache baseline.
			link := ctlLinks[*killServer]
			if link == nil {
				die(fmt.Errorf("no control link to the rejoined server %d", *killServer))
			}
			for k := 0; k < *replicate; k++ {
				p := ((*killServer-k)%*servers + *servers) % *servers
				got, err := link.TryFingerprintPart(p, *servers)
				if err != nil {
					die(fmt.Errorf("fingerprint partition %d on rejoined server %d: %w", p, *killServer, err))
				}
				if want := srvBase.FingerprintPart(p, *servers); got != want {
					die(fmt.Errorf("FAIL: rejoined server %d partition %d fingerprint %x != baseline %x", *killServer, p, got, want))
				}
			}
			fmt.Printf("\nPASS: server %d rejoined: all %d of its partitions certified bit-identical to the baseline after anti-entropy resync\n",
				*killServer, *replicate)
		}
		if *killServer >= 0 {
			fmt.Printf("\nPASS: distributed %s over loopback TCP survived killing embedding server %d: surviving tier bit-identical to the baseline across %d materialized rows\n",
				*engineFl, *killServer, len(remote.MaterializedIDs()))
		} else {
			fmt.Printf("\nPASS: distributed %s over loopback TCP left the %d-server embedding tier bit-identical to the baseline across %d materialized rows\n",
				*engineFl, finalS, len(remote.MaterializedIDs()))
		}
		if *reshardTo > 0 {
			fmt.Printf("\nPASS: tier resharded %d -> %d: migrated tier certified bit-identical to the no-cache baseline across %d materialized rows\n",
				*servers, finalS, len(remote.MaterializedIDs()))
		}
	}
	if *restartFl {
		// Certification done: the driver — the coordinator that knows every
		// tier client has re-admitted the rejoiner — closes its server-side
		// recovery window, returning it to plain-write service.
		if tier, ok := ctl.(*transport.ShardedStore); ok {
			if err := tier.EndRecovery(*killServer); err != nil {
				die(fmt.Errorf("end recovery of server %d: %w", *killServer, err))
			}
		}
	}
	ctl.Shutdown()
	for _, l := range ctlLinks {
		if l != nil {
			l.Close()
		}
	}
	// Retire the server processes the routing no longer references: a
	// shrink's [finalS, S) range still serves (the migration leaves their
	// state untouched until the operator stops them) and an aborted grow may
	// have left admitted-but-unrouted spares. The control store above only
	// covers [0, finalS), so shut these down over their own links; a server
	// that cannot be reached any more is killed so the Wait below cannot
	// hang.
	forceKilled := make([]bool, len(serverProcs))
	for s := finalS; s < len(serverProcs); s++ {
		if serverProcs[s] == nil || s == *killServer {
			continue
		}
		if link, err := transport.DialTCPLink(srvAddrs[s], 5*time.Second); err == nil {
			link.Shutdown()
			link.Close()
		} else if p := serverProcs[s].Process; p != nil {
			p.Kill()
			forceKilled[s] = true
		}
	}
	// Wait for every server before reporting: bailing on the first bad exit
	// would leave later servers running with no one to reap them. The chaos
	// victim is reaped here too — its kill-induced exit error is the point,
	// not a failure.
	var exitErr error
	for s, proc := range serverProcs {
		if proc == nil {
			continue
		}
		err := proc.Wait()
		// The chaos victims' kill-induced exits are the point, not failures:
		// the original -kill-server incarnation (its respawn, which Waits
		// here under the same index, must exit cleanly) and the
		// -kill-after-rejoin peer.
		if (s == *killServer && !*restartFl) || s == *killAfterRj || forceKilled[s] {
			continue
		}
		if err != nil && exitErr == nil {
			exitErr = fmt.Errorf("embedding server %d: %w", s, err)
		}
	}
	if exitErr != nil {
		die(exitErr)
	}
}

// freeLoopbackAddrs reserves n distinct loopback TCP addresses by binding
// ephemeral ports and releasing them. The tiny bind race with other
// processes is acceptable for a local spawn harness; the children's dial
// retries cover slow starters, and a genuinely stolen port fails loudly.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	for _, lis := range listeners {
		lis.Close()
	}
	return addrs, nil
}

// prefixWriter prefixes every output line with its process tag so the
// interleaved child output stays attributable.
type prefixWriter struct {
	w      io.Writer
	prefix []byte
	atBOL  bool
}

func newPrefixWriter(w io.Writer, prefix string) *prefixWriter {
	return &prefixWriter{w: w, prefix: []byte(prefix), atBOL: true}
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		if p.atBOL {
			if _, err := p.w.Write(p.prefix); err != nil {
				return written, err
			}
			p.atBOL = false
		}
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			n, err := p.w.Write(b)
			return written + n, err
		}
		n, err := p.w.Write(b[:i+1])
		written += n
		if err != nil {
			return written, err
		}
		p.atBOL = true
		b = b[i+1:]
	}
	return written, nil
}

// lineWatch is an io.Writer that scans a child's raw output stream and
// invokes fire once per complete line containing match, buffering partial
// lines across writes. The driver tees trainer stderr through one to count
// rejoin markers.
type lineWatch struct {
	mu    sync.Mutex
	match []byte
	buf   []byte
	fire  func()
}

func (lw *lineWatch) Write(b []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf = append(lw.buf, b...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		if bytes.Contains(lw.buf[:i], lw.match) {
			lw.fire()
		}
		lw.buf = lw.buf[i+1:]
	}
}

// banner prints the experiment header.
func banner(spec *data.Spec, netName string) {
	fmt.Printf("dataset %s  (%d categorical / %d numeric, %d rows, dim %d)\n",
		spec.Name, spec.NumCategorical, spec.NumNumeric, spec.TotalRows(), spec.EmbDim)
	fmt.Printf("engine %s  model %s  opt %s  lr %g  batch %d x %d iters  lookahead %d  trainers %d  partitioner %s  servers %d x %d shards  replicate %d  net %s\n",
		*engineFl, *modelFl, *optFl, *lr, *batchSz, *batches, *lookahd, *trainers, *partFl, *servers, *shards, *replicate, netName)
	if *serveInfer {
		qps := "unpaced"
		if *inferQPS > 0 {
			qps = fmt.Sprintf("%g qps", *inferQPS)
		}
		fmt.Printf("serving %d clients  dist %s  %s  max-stale %d epochs  cache %d rows\n",
			*inferClients, *inferDist, qps, *inferStale, *inferCache)
	}
	fmt.Println()
}

// specByName resolves the dataset flag to a Table 1 shape.
func specByName(name string) (*data.Spec, error) {
	switch name {
	case "criteo-kaggle":
		return data.CriteoKaggle(), nil
	case "avazu":
		return data.Avazu(), nil
	case "criteo-terabyte":
		return data.CriteoTerabyte(), nil
	case "alibaba":
		return data.Alibaba(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// partitionerByName resolves the partitioner flag. "hash" is the LRPP
// default: contiguous example split, rows hash-partitioned across trainer
// caches (ownership is always by hash; the flag picks example placement).
func partitionerByName(name string) (core.Partitioner, error) {
	switch name {
	case "hash", "contiguous", "":
		return nil, nil // engine default: core.Contiguous
	case "roundrobin":
		return core.RoundRobin{}, nil
	case "comm-aware":
		// Empty seen-set: ownership resolves through the hash fallback,
		// matching where the LRPP cache actually places every row.
		return &core.CommAware{Own: core.Ownership{}}, nil
	}
	return nil, fmt.Errorf("unknown partitioner %q", name)
}

// report prints one engine's result block.
func report(r *train.Result) {
	fmt.Printf("[%s] %d iters, %d examples in %v  (%.0f ex/s)\n",
		r.Engine, r.Iters, r.Examples, r.Elapsed.Round(time.Millisecond), r.Throughput())
	fmt.Printf("  loss: first %.4f  last %.4f  avg %.4f\n", r.FirstLoss, r.LastLoss, r.AvgLoss)
	if r.Engine != "baseline" && r.UniqueIDs > 0 {
		fmt.Printf("  cache: hit-rate %.1f%%  (%d hits / %d unique ids), peak %d rows, %d evictions\n",
			100*r.HitRate(), r.CachedHits, r.UniqueIDs, r.PeakCache, r.Evicted)
	}
	if r.Engine != "baseline" {
		fmt.Printf("  overlap: prefetch||train observed %d times, writeback||train %d times\n",
			r.OverlapPrefetchTrain, r.OverlapMaintTrain)
	}
	if r.Engine == "lrpp" {
		fmt.Printf("  lrpp: %d replica rows pushed, %d gradient partials merged, flushes %d urgent / %d delayed\n",
			r.ReplicaRows, r.SyncEntries, r.UrgentFlushes, r.DelayedFlushes)
		fmt.Printf("  mesh: %d msgs, %.2f MB", r.Mesh.Msgs, float64(r.Mesh.Bytes)/1e6)
		if r.Mesh.SimulatedDelay > 0 {
			fmt.Printf(", simulated delay %v", r.Mesh.SimulatedDelay.Round(time.Millisecond))
		}
		fmt.Println()
		if *statsFl {
			c := r.MeshClasses
			iters := float64(r.Iters)
			fmt.Printf("  mesh by phase (sent from this process):\n")
			row := func(name string, msgs, bytes int64) {
				fmt.Printf("    %-11s %7d frames (%6.1f/iter)  %10.2f KB (%8.0f B/iter)\n",
					name, msgs, float64(msgs)/iters, float64(bytes)/1e3, float64(bytes)/iters)
			}
			row("replica", c.ReplicaMsgs, c.ReplicaBytes)
			row("sync", c.SyncMsgs, c.SyncBytes)
			row("collective", c.CollMsgs, c.CollBytes)
			row("plan", c.PlanMsgs, c.PlanBytes)
		}
	}
	if r.Tier != nil {
		fmt.Printf("  tier: replicate %d over %d servers, %d failovers, %d rpc retries, dead %v\n",
			r.Tier.Replicate, r.Tier.Servers, r.Tier.Failovers, r.Tier.Retries, r.Tier.Dead)
		if r.Tier.Revived > 0 || r.Tier.ResyncRows > 0 {
			fmt.Printf("  tier: %d server rejoin(s) certified, %d rows streamed by anti-entropy resync\n",
				r.Tier.Revived, r.Tier.ResyncRows)
		}
		if r.Tier.RoutingEpoch > 0 {
			fmt.Printf("  tier: reshard routing epoch %d, %d partitions cut over, %d rows (%.2f MB) streamed through this process\n",
				r.Tier.RoutingEpoch, r.Tier.ReshardParts, r.Tier.ReshardRows, float64(r.Tier.ReshardBytes)/1e6)
		}
	}
	st := r.Transport
	fmt.Printf("  traffic: fetched %d rows (%.2f MB) in %d calls, wrote %d rows (%.2f MB) in %d calls\n",
		st.RowsFetched, float64(st.BytesFetched)/1e6, st.Fetches,
		st.RowsWritten, float64(st.BytesWritten)/1e6, st.Writes)
	if *statsFl && len(r.StoreServers) > 0 {
		iters := float64(r.Iters)
		fmt.Printf("  tier by server (sent from this process):\n")
		for i, ss := range r.StoreServers {
			fmt.Printf("    server %-3d fetch %6d frames (%5.1f/iter) %10.2f KB   write %6d frames (%5.1f/iter) %10.2f KB\n",
				i, ss.Fetches, float64(ss.Fetches)/iters, float64(ss.BytesFetched)/1e3,
				ss.Writes, float64(ss.Writes)/iters, float64(ss.BytesWritten)/1e3)
		}
	}
	if st.SimulatedDelay > 0 {
		fmt.Printf("  simulated network delay injected: %v\n", st.SimulatedDelay.Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bagpipe:", err)
	os.Exit(1)
}
