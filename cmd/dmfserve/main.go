// Command dmfserve is an HTTP/JSON prediction service over a DMFSGD
// Snapshot: the serve-heavy-traffic story of the Session API. It trains a
// Session over a synthetic dataset, materializes an immutable Snapshot,
// and answers prediction queries from it with zero lock acquisitions —
// every request handler reads the same frozen coordinate arrays, so
// throughput scales with cores until memory bandwidth. With -refresh the
// session keeps training in the background and atomically swaps a fresh
// Snapshot into the serving pointer at each interval; in-flight requests
// keep the snapshot they started with.
//
// With -trainer-id and -cluster-size the process joins a trainer
// cluster (internal/cluster): each of T trainers owns a contiguous range
// of coordinate-store shards, trains the same measurement stream in
// lockstep rounds, routes cross-shard target updates to the owning
// trainer, and mirrors every other trainer's shards locally — so every
// member serves (and gossips to followers) the full coordinate view.
// Trainer identities are 0..T-1 and must be stable across restarts: a
// restart resumes from its checkpoint with the incarnation bumped, so
// its vector-clock lineage dominates everything the previous life wrote.
// Peers find each other through -cluster-peers bootstrap addresses and
// the membership gossip of internal/member. All cluster members must run
// identical dataset/seed/budget flags — the identical measurement
// streams are what keep their rounds in lockstep. A -cluster-size 1
// cluster does not reproduce the standalone trainer's model: cluster
// rounds apply each batch epoch-style, while the standalone trainer
// applies updates one at a time (Gauss-Seidel).
//
// With -gossip the process joins the replication tier: it listens for
// anti-entropy gossip (TCP, length-prefixed frames) and feeds its
// versioned snapshot state to pulling peers, so one trainer replica can
// feed any number of serving replicas. With -peer the process is such a
// serving replica: it skips training entirely, bootstraps its state from
// the given peers, keeps it fresh by pulling only the shards whose
// version advanced, and publishes its replication lag at /healthz. Reads
// never block on replication — a replica serves whatever immutable
// snapshot it holds while newer shards stream in.
//
// Endpoints:
//
//	GET  /healthz                          liveness, update counter, replication lag
//	GET  /stats                            session and snapshot metadata
//	GET  /predict?i=3&j=77                 one path: score and class
//	POST /predict {"pairs":[[3,77],...]}   batch prediction
//	GET  /rank?i=3&candidates=4,9,12       §6.4 peer ranking, best first
//
// Example — one trainer feeding one read replica:
//
//	dmfserve -dataset meridian -n 500 -addr :8080 -refresh 2s -gossip 127.0.0.1:9090
//	dmfserve -addr :8081 -peer 127.0.0.1:9090
//	curl 'localhost:8081/predict?i=3&j=77'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/cluster"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/member"
	"dmfsgd/internal/metrics"
	"dmfsgd/internal/replica"
	"dmfsgd/internal/transport"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dsName  = flag.String("dataset", "meridian", "dataset: meridian, harvard or hps3")
		n       = flag.Int("n", 500, "node count (0 = dataset original scale)")
		seed    = flag.Int64("seed", 1, "seed for dataset generation and training")
		rank    = flag.Int("rank", 10, "coordinate dimensionality")
		k       = flag.Int("k", 0, "neighbors per node (0 = dataset default)")
		shards  = flag.Int("shards", 0, "coordinate store shards (0 = default)")
		workers = flag.Int("workers", 0, "training/eval goroutines (0 = GOMAXPROCS)")
		budget  = flag.Int("budget", 0, "training update budget (0 = paper default, 20·k·n)")
		refresh = flag.Duration("refresh", 0, "keep training and swap a fresh snapshot at this interval (0 = train once, serve frozen)")

		trainerID      = flag.Int("trainer-id", -1, "stable trainer identity (0..T-1) in a trainer cluster; alone it only adds the cluster fields to /healthz")
		clusterSize    = flag.Int("cluster-size", 0, "trainer count T; ids are 0..T-1 (enables cluster mode, even at T=1)")
		clusterAddr    = flag.String("cluster-addr", "", "trainer-cluster transport listen address (TCP; default 127.0.0.1:0)")
		clusterPeers   = flag.String("cluster-peers", "", "comma-separated bootstrap -cluster-addr addresses of other trainers (enables cluster mode)")
		clusterTimeout = flag.Duration("cluster-timeout", 5*time.Second, "lockstep barrier timeout; a trainer missing it is declared dead and failed over")

		gossipAddr  = flag.String("gossip", "", "replication gossip listen address (TCP); joins the replication tier")
		peerList    = flag.String("peer", "", "comma-separated bootstrap gossip peers; serve as a read replica (no local training)")
		gossipEvery = flag.Duration("gossip-interval", 500*time.Millisecond, "anti-entropy gossip period")

		ckptPath      = flag.String("checkpoint", "", "durability: checkpoint file — restored at startup (restart-without-retrain), saved after training bursts, periodically and at shutdown, always via atomic rename")
		walPath       = flag.String("wal", "", "durability: measurement write-ahead log directory (trainer only) — the training stream is teed into rotating segment files whose tail is replayed on restart; checkpoint barriers delete the covered segments")
		ckptEvery     = flag.Duration("checkpoint-interval", 30*time.Second, "minimum period between periodic checkpoint saves while training continues")
		ckptBaseEvery = flag.Int("checkpoint-base-every", 0, "durability: save incremental delta checkpoints (only the shards that advanced), rolling a fresh full base after this many deltas; 0 = rewrite the full checkpoint every save")
		walSegBytes   = flag.Int64("wal-segments", 0, "durability: start a new -wal segment past this many bytes (0 = 64 MiB)")

		pprofAddr = flag.String("pprof", "", "profiling: expose net/http/pprof on this separate (loopback) listener, e.g. 127.0.0.1:6060; empty = off")
		tracePath = flag.String("trace", "", "observability: append NDJSON round/epoch/gossip trace events ("+metrics.TraceSchema+") to this file; empty = off")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: load runs can profile the
		// process without the serving mux growing debug routes. Bind
		// synchronously so a bad -pprof address fails the start instead of
		// logging from a goroutine the operator never reads.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", netpprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("dmfserve: pprof listener %s: %v", *pprofAddr, err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
		go func() {
			if err := http.Serve(ln, pm); err != nil {
				log.Printf("dmfserve: pprof: %v", err)
			}
		}()
	}

	if *tracePath != "" {
		tw, err := metrics.OpenTraceFile(*tracePath)
		if err != nil {
			log.Fatalf("dmfserve: trace %s: %v", *tracePath, err)
		}
		metrics.SetTrace(tw)
		defer tw.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The serving pointer: handlers load it once per request; the
	// refresher (trainer) or the replication peer (follower) stores fresh
	// snapshots. Readers never block writers and vice versa. On a
	// follower it is nil until the bootstrap pull (or a local checkpoint)
	// lands.
	var serving atomic.Pointer[dmfsgd.Snapshot]

	// Durability telemetry, published on /healthz when -checkpoint is on:
	// wal_lag is the number of applied updates not yet covered by a
	// durable checkpoint (they live only in the WAL, or — without one —
	// would retrain on restart).
	var trainedSteps, ckptSteps atomic.Int64
	// trainerDone is closed once the training goroutine (if any) has
	// saved its shutdown checkpoint; main waits on it before exiting.
	trainerDone := make(chan struct{})
	close(trainerDone) // replaced by a live channel when a trainer runs

	role := "standalone"
	follower := *peerList != ""
	if follower {
		role = "follower"
	} else if *gossipAddr != "" {
		role = "trainer"
	}

	// Trainer-cluster wiring: -cluster-size or -cluster-peers turns the
	// trainer into one member of a lockstep trainer cluster. A bare
	// -trainer-id keeps the legacy training path verbatim and only
	// surfaces the cluster identity fields on /healthz.
	var bootPeers []string
	for _, a := range strings.Split(*clusterPeers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			bootPeers = append(bootPeers, a)
		}
	}
	clusterMode := *clusterSize > 0 || len(bootPeers) > 0
	clusterT := *clusterSize
	if t := 1 + len(bootPeers); t > clusterT {
		clusterT = t
	}
	if clusterMode {
		if follower {
			log.Fatalf("dmfserve: -cluster-size/-cluster-peers describe a trainer role; drop -peer")
		}
		if *trainerID < 0 || *trainerID >= clusterT {
			log.Fatalf("dmfserve: a cluster of %d trainers needs -trainer-id in [0,%d), got %d",
				clusterT, clusterT, *trainerID)
		}
		role = "cluster-trainer"
	}
	var clusterTr *cluster.Trainer
	// selfInc numbers this process lifetime of the trainer identity: the
	// persisted checkpoint incarnation plus one, so the restarted
	// lineage's vector-clock entries dominate everything the previous
	// life wrote. 0 on a fresh start.
	var selfInc uint32
	soloShards := 0 // store shard count, for the legacy-path /healthz fields

	// The replication peer (nil when the tier is disabled) and its
	// transport.
	var repPeer *replica.Peer
	startPeer := func(listen string, peers []string, source bool, onState func(*replica.State)) *transport.TCP {
		tr, err := transport.ListenTCP(listen)
		if err != nil {
			log.Fatalf("dmfserve: %v", err)
		}
		// A stable -trainer-id (rather than the pid) keeps the gossip
		// identity attached to the incarnation lineage across restarts, so
		// followers re-admit a restarted trainer instead of blackholing it.
		id := uint32(os.Getpid())
		if *trainerID >= 0 {
			id = uint32(*trainerID)
		}
		repPeer = replica.NewPeer(replica.Config{
			ID:          id,
			Incarnation: selfInc,
			Transport:   tr,
			Peers:       peers,
			Interval:    *gossipEvery,
			Seed:        *seed,
			Source:      source,
			OnState:     onState,
			Logf:        log.Printf,
		})
		go repPeer.Run(ctx)
		log.Printf("replication: %s gossiping on %s (interval %v)", role, tr.Addr(), *gossipEvery)
		return tr
	}

	dsLabel := *dsName
	if follower {
		// Read replica: no dataset, no training. State arrives over
		// gossip; each applied delta publishes a fresh serving snapshot.
		dsLabel = "replicated"
		listen := *gossipAddr
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		// Peek the persisted incarnation before gossip starts, so this
		// lifetime announces itself one past the previous one. LoadChain
		// (not ReadFile) so an incarnation recorded by a delta save after
		// the last base roll is not missed.
		if *ckptPath != "" {
			if c, _, err := ckpt.LoadChain(*ckptPath); err == nil {
				selfInc = c.Incarnation + 1
			}
		}
		// Publish serves directly over the replicated state's immutable
		// per-shard blocks: no 2·n·r flatten per applied delta, and blocks
		// shared with the previously published snapshot skip re-validation,
		// so the per-delta cost is proportional to the shards that advanced.
		// The mutex orders the checkpoint-bootstrap publish against the
		// gossip loop's.
		var pubMu sync.Mutex
		var pubPrev *dmfsgd.Snapshot
		publishState := func(st *replica.State) {
			pubMu.Lock()
			defer pubMu.Unlock()
			bu, bv := st.Blocks()
			snap, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(st.Meta.Metric), st.Meta.Tau,
				int(st.Meta.Steps), st.Rank, st.N, st.Shards, bu, bv, st.Vers(), pubPrev)
			if err != nil {
				log.Printf("dmfserve: replicated state rejected: %v", err)
				return
			}
			pubPrev = snap
			serving.Store(snap)
			trainedSteps.Store(int64(st.Meta.Steps))
		}
		tr := startPeer(listen, strings.Split(*peerList, ","), false, publishState)
		defer tr.Close()

		if *ckptPath != "" {
			// Bootstrap from the local checkpoint chain when one exists —
			// the full base plus every delta save that extends it: the
			// replica serves immediately, and the restored version vector
			// makes gossip pull only the shards that advanced while it was
			// down — not the whole state.
			cw := ckpt.NewChainWriter(*ckptPath, *ckptBaseEvery)
			if c, deltas, err := ckpt.LoadChain(*ckptPath); err == nil {
				vers := append([]uint64(nil), c.Vers...)
				st, err := replica.FromCheckpoint(c)
				if err != nil {
					log.Fatalf("dmfserve: checkpoint %s: %v", *ckptPath, err)
				}
				// The gossip loop is already running, so a bootstrap pull
				// may have landed fresher state: SetState never goes
				// backwards, and publishing the peer's current state (not
				// the checkpoint's) keeps the serving snapshot on
				// whichever won.
				repPeer.SetState(st)
				if cur := repPeer.State(); cur != nil {
					publishState(cur)
				}
				ckptSteps.Store(int64(st.Meta.Steps))
				cw.Resume(vers, deltas)
				log.Printf("checkpoint restored: %d updates (base + %d deltas), serving before first gossip pull", st.Meta.Steps, deltas)
			} else if !errors.Is(err, os.ErrNotExist) {
				log.Fatalf("dmfserve: checkpoint %s: %v", *ckptPath, err)
			}
			// Persist whatever state gossip converges to, writing only the
			// shards that advanced since the previous save.
			saveState := func() {
				st := repPeer.State()
				if st == nil || uint64(ckptSteps.Load()) == st.Meta.Steps {
					return
				}
				if _, err := cw.Save(st.Checkpoint()); err != nil {
					log.Printf("dmfserve: checkpoint save: %v", err)
					return
				}
				ckptSteps.Store(int64(st.Meta.Steps))
			}
			done := make(chan struct{})
			trainerDone = done // main waits for the shutdown save
			go func() {
				defer close(done)
				tick := time.NewTicker(*ckptEvery)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						saveState()
						return
					case <-tick.C:
						saveState()
					}
				}
			}()
		}
	} else {
		var ds *dmfsgd.Dataset
		switch *dsName {
		case "meridian":
			ds = dmfsgd.NewMeridianDataset(*n, *seed)
		case "harvard":
			ds = dmfsgd.NewHarvardDataset(*n, 0, *seed)
		case "hps3":
			ds = dmfsgd.NewHPS3Dataset(*n, *seed)
		default:
			log.Fatalf("dmfserve: unknown dataset %q (want meridian, harvard or hps3)", *dsName)
		}

		opts := []dmfsgd.Option{
			dmfsgd.WithSeed(*seed),
			dmfsgd.WithRank(*rank),
		}
		if *k > 0 {
			opts = append(opts, dmfsgd.WithK(*k))
		}
		if *shards > 0 {
			opts = append(opts, dmfsgd.WithShards(*shards))
		}
		if *workers > 0 {
			opts = append(opts, dmfsgd.WithWorkers(*workers))
		}

		// Durability wiring: a WAL directory tees the canonical
		// measurement stream, and an existing checkpoint resumes the
		// session instead of retraining — the WAL tail replays what the
		// previous process applied after its last checkpoint barrier.
		resume := false
		if *ckptPath != "" {
			if _, statErr := os.Stat(*ckptPath); statErr == nil {
				resume = true
			}
		}
		if *trainerID >= 0 && resume {
			// The restart contract: resume one past the persisted
			// incarnation, and record the bumped value in every checkpoint
			// this lifetime writes. LoadChain so an incarnation recorded
			// by a delta save after the last base roll is not missed.
			c, _, peekErr := ckpt.LoadChain(*ckptPath)
			if peekErr != nil {
				log.Fatalf("dmfserve: checkpoint %s: %v", *ckptPath, peekErr)
			}
			selfInc = c.Incarnation + 1
			opts = append(opts, dmfsgd.WithIncarnation(selfInc))
		}
		mkSource := func() (dmfsgd.Source, error) {
			var src dmfsgd.Source
			var err error
			if ds.Trace != nil {
				src, err = dmfsgd.NewTraceSource(ds)
			} else {
				src, err = dmfsgd.NewMatrixSource(ds, *k, *seed)
			}
			if err != nil || *walPath == "" {
				return src, err
			}
			return dmfsgd.WithWALDir(src, *walPath, *walSegBytes)
		}
		// The chain is the save policy for every checkpoint this process
		// writes: -checkpoint-base-every 0 degenerates to a full rewrite
		// per save, exactly the old behavior.
		var chain *dmfsgd.CheckpointChain
		if *ckptPath != "" {
			chain = dmfsgd.NewCheckpointChain(*ckptPath, *ckptBaseEvery)
		}
		src, err := mkSource()
		if err != nil {
			log.Fatalf("dmfserve: %v", err)
		}
		// With a checkpoint or a log there is something to resume from:
		// the checkpoint chain (base + deltas) when its base exists, then
		// the WAL's segment tail past its barrier. A log without a base
		// is a cold replay — the process died before its first save —
		// and an empty log a fresh start.
		var sess *dmfsgd.Session
		switch {
		case !resume && *walPath == "":
			sess, err = dmfsgd.NewSessionFromSource(ds, src, opts...)
		case chain != nil:
			sess, err = chain.Resume(ds, src, opts...)
		default:
			sess, err = dmfsgd.ResumeSessionFromSource(ds, src, nil, opts...)
		}
		switch {
		case err != nil && !resume && *walPath != "":
			// The log belongs to a different configuration (or was
			// compacted at a barrier whose checkpoint is gone): start
			// fresh rather than crash-loop.
			log.Printf("dmfserve: WAL %s not replayable into this configuration (%v); starting fresh", *walPath, err)
			idxs, lerr := dataset.ListWALSegments(*walPath)
			if lerr != nil {
				log.Fatalf("dmfserve: WAL dir %s: %v", *walPath, lerr)
			}
			for _, idx := range idxs {
				if rerr := os.Remove(filepath.Join(*walPath, dataset.WALSegmentName(idx))); rerr != nil {
					log.Fatalf("dmfserve: WAL dir %s: %v", *walPath, rerr)
				}
			}
			if src, err = mkSource(); err != nil {
				log.Fatalf("dmfserve: %v", err)
			}
			if sess, err = dmfsgd.NewSessionFromSource(ds, src, opts...); err != nil {
				log.Fatalf("dmfserve: %v", err)
			}
		case err != nil && resume:
			log.Fatalf("dmfserve: resume from %s: %v (if -wal was added or removed since the checkpoint was written, restart with the original flags, or delete the checkpoint and WAL to retrain)", *ckptPath, err)
		case err != nil:
			log.Fatalf("dmfserve: %v", err)
		case resume:
			log.Printf("checkpoint restored: %d updates already trained", sess.Steps())
		case sess.Steps() > 0:
			log.Printf("WAL replayed cold: %d updates recovered without a checkpoint", sess.Steps())
		}
		defer sess.Close()
		trainedSteps.Store(int64(sess.Steps()))
		if eng := sess.Engine(); eng != nil {
			soloShards = eng.Store().Shards()
		}

		if clusterMode {
			listen := *clusterAddr
			if listen == "" {
				listen = "127.0.0.1:0"
			}
			ctr, lerr := transport.ListenTCP(listen)
			if lerr != nil {
				log.Fatalf("dmfserve: cluster listener: %v", lerr)
			}
			// The membership mux splits the cluster lane: Join/Peers frames
			// feed the discovery directory, everything else (routed updates,
			// clock deltas, ownership maps) flows to the trainer's Step loop.
			cmux := member.NewMux(ctr)
			defer cmux.Close()
			roster := make([]uint32, clusterT)
			for i := range roster {
				roster[i] = uint32(i)
			}
			clusterTr, err = cluster.New(cluster.Config{
				ID:          uint32(*trainerID),
				Incarnation: sess.Incarnation(),
				Trainers:    roster,
				Transport:   cmux,
				Engine:      sess.Engine(),
				Timeout:     *clusterTimeout,
				Logf:        log.Printf,
			})
			if err != nil {
				log.Fatalf("dmfserve: %v", err)
			}
			dir := member.NewDirectory(uint32(*trainerID), cmux, *seed)
			dir.OnPeer(func(p member.Peer) { clusterTr.AddPeer(p.ID, p.Addr) })
			go dir.Run(ctx, 500*time.Millisecond)
			// Re-Join the bootstrap addresses until the roster is complete:
			// peers started in any order race each other's listeners, and a
			// refused first dial would otherwise leave the directory empty
			// with no one to gossip with.
			go func() {
				tick := time.NewTicker(200 * time.Millisecond)
				defer tick.Stop()
				for {
					if len(dir.Peers()) >= clusterT-1 {
						return
					}
					for _, b := range bootPeers {
						_ = dir.Join(b)
					}
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
					}
				}
			}()
			log.Printf("cluster: trainer %d of %d (incarnation %d) on %s",
				*trainerID, clusterT, sess.Incarnation(), cmux.Addr())
			if werr := clusterTr.WaitRoster(ctx); werr != nil {
				log.Fatalf("dmfserve: waiting for the cluster roster: %v", werr)
			}
		}
		// runTraining drains total successful updates through whichever
		// training path is active: lockstep cluster rounds or the local
		// sequential loop.
		runTraining := func(total int) error {
			if clusterTr != nil {
				return sess.RunCluster(ctx, clusterTr, total, 0)
			}
			return sess.Run(ctx, total)
		}

		saveCkpt := func() {
			if chain == nil {
				return
			}
			if err := chain.Save(sess); err != nil {
				log.Printf("dmfserve: checkpoint save: %v", err)
				return
			}
			ckptSteps.Store(int64(sess.Steps()))
		}

		resolvedBudget := *budget
		if resolvedBudget <= 0 {
			resolvedBudget = sess.DefaultBudget()
		}
		log.Printf("training: %s, %d nodes, k=%d, tau=%.2f", ds.Name, sess.N(), sess.K(), sess.Tau())
		start := time.Now()
		if remaining := resolvedBudget - sess.Steps(); remaining > 0 {
			if err := runTraining(remaining); err != nil {
				if errors.Is(err, cluster.ErrEvicted) {
					// The surviving cluster reassigned our shards; the local
					// mirror is still a complete coordinate view as of the
					// last finished round, so keep serving it frozen.
					log.Printf("dmfserve: evicted from the trainer cluster; serving the last mirrored state")
				} else {
					// Make the interrupted progress durable before exiting: a
					// SIGTERM mid-burst must not discard hours of training.
					saveCkpt()
					log.Fatalf("dmfserve: training interrupted: %v", err)
				}
			} else {
				log.Printf("trained: %d updates in %.1fs", sess.Steps(), time.Since(start).Seconds())
			}
		} else {
			log.Printf("budget of %d already met by the checkpoint (%d updates): nothing to retrain", resolvedBudget, sess.Steps())
		}
		trainedSteps.Store(int64(sess.Steps()))
		saveCkpt()

		// Trainer-side replication state: rebuilt incrementally from each
		// snapshot's version vector — only shards that advanced since the
		// previous capture are re-packed. Written by one goroutine (main
		// at startup, then the refresher).
		var repState *replica.State
		var lastPublished *dmfsgd.Snapshot
		publish := func(snap *dmfsgd.Snapshot) {
			if snap == lastPublished {
				// Session.Snapshot memoizes at quiescence; nothing moved,
				// so skip the flat-copy capture entirely.
				return
			}
			lastPublished = snap
			serving.Store(snap)
			if repPeer == nil {
				return
			}
			u, v := snap.Flat()
			st, err := replica.Update(repState, snap.N(), snap.Dim(), snap.StoreShards(),
				replica.Meta{Steps: uint64(snap.Steps()), Tau: snap.Tau(), Metric: uint8(ds.Metric)},
				snap.Versions(), u, v)
			if err != nil {
				log.Printf("dmfserve: replica capture: %v", err)
				return
			}
			repState = st
			repPeer.SetState(st)
		}

		if *gossipAddr != "" {
			tr := startPeer(*gossipAddr, nil, true, nil)
			defer tr.Close()
		}
		publish(sess.Snapshot())

		if *refresh > 0 {
			done := make(chan struct{})
			trainerDone = done
			go func() {
				defer close(done)
				tick := time.NewTicker(*refresh)
				defer tick.Stop()
				lastSave := time.Now()
				for {
					select {
					case <-ctx.Done():
						// Shutdown barrier: make everything trained since the
						// last save durable before the process exits.
						saveCkpt()
						return
					case <-tick.C:
					}
					// One k·n increment of training, then publish. Only this
					// goroutine touches the session after startup; handlers
					// read immutable snapshots.
					if err := runTraining(sess.N() * sess.K()); err != nil {
						if errors.Is(err, cluster.ErrEvicted) {
							log.Printf("dmfserve: evicted from the trainer cluster; refresh loop stopping")
						}
						saveCkpt()
						return
					}
					snap := sess.Snapshot()
					publish(snap)
					trainedSteps.Store(int64(sess.Steps()))
					if *ckptPath != "" && time.Since(lastSave) >= *ckptEvery {
						saveCkpt()
						lastSave = time.Now()
					}
					log.Printf("snapshot refreshed at %d updates", snap.Steps())
				}
			}()
		} else if clusterTr != nil {
			// No refresh loop: keep the cluster's failure detection live
			// with heartbeat rounds — pure barrier exchanges that move no
			// state — so a dead peer's shards are failed over even while no
			// trainer is ingesting measurements.
			hb := *clusterTimeout / 2
			if hb > time.Second {
				hb = time.Second
			}
			go func() {
				tick := time.NewTicker(hb)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
					}
					if _, err := clusterTr.Step(ctx, nil); err != nil {
						if errors.Is(err, cluster.ErrEvicted) {
							log.Printf("dmfserve: evicted from the trainer cluster; heartbeats stopping")
							return
						}
						if ctx.Err() != nil {
							return
						}
						// ErrRoundAborted: ownership changed under us; keep
						// heartbeating under the new map.
					}
				}
			}()
		}
	}

	// loadSnap answers 503 while a follower has not bootstrapped yet.
	loadSnap := func(w http.ResponseWriter) (*dmfsgd.Snapshot, bool) {
		snap := serving.Load()
		if snap == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "replica syncing: no snapshot yet"})
			return nil, false
		}
		return snap, true
	}

	// Re-express the /healthz quantities as gauges on the shared registry:
	// one bookkeeping path feeds both surfaces (healthReply documents the
	// correspondence). Cluster and replica internals already publish their
	// own gauges (dmf_cluster_clock_lag, dmf_replica_lag_steps).
	reg := metrics.Default()
	reg.GaugeFunc("dmf_serving_ready",
		"1 once a serving snapshot is published (healthz status=ok).",
		func() float64 {
			if serving.Load() != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dmf_serving_steps",
		"Updates folded into the serving snapshot (healthz steps).",
		func() float64 {
			if s := serving.Load(); s != nil {
				return float64(s.Steps())
			}
			return 0
		})
	if *ckptPath != "" {
		reg.GaugeFunc("dmf_ckpt_covered_steps",
			"Updates covered by the latest durable checkpoint (healthz checkpoint_steps).",
			func() float64 { return float64(ckptSteps.Load()) })
		reg.GaugeFunc("dmf_wal_lag_steps",
			"Applied updates not yet covered by a durable checkpoint (healthz wal_lag).",
			func() float64 { return float64(trainedSteps.Load() - ckptSteps.Load()) })
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := serving.Load()
		resp := healthReply{Status: "ok", Role: role}
		if snap == nil {
			resp.Status = "syncing"
		} else {
			resp.Steps = int64(snap.Steps())
		}
		if clusterTr != nil {
			cs := clusterTr.Status()
			resp.clusterHealth = &clusterHealth{
				TrainerID:   cs.ID,
				Incarnation: cs.Incarnation,
				Epoch:       cs.Epoch,
				Round:       cs.Round,
				Shards:      cs.Shards,
				OwnedShards: cs.OwnedShards,
				Owners:      cs.Owners,
				Live:        cs.Live,
				ClockLag:    cs.ClockLag,
			}
		} else if *trainerID >= 0 {
			// Legacy single-trainer path with a cluster identity: report it
			// as the degenerate cluster of one — every shard owned here,
			// no peers to lag behind.
			owners := make([]uint32, soloShards)
			for i := range owners {
				owners[i] = uint32(*trainerID)
			}
			resp.clusterHealth = &clusterHealth{
				TrainerID:   uint32(*trainerID),
				Incarnation: selfInc,
				Shards:      soloShards,
				OwnedShards: soloShards,
				Owners:      owners,
				Live:        []uint32{uint32(*trainerID)},
			}
		}
		if repPeer != nil {
			lag := repPeer.Lag()
			rh := &replicaHealth{LagSteps: lag.StepsBehind, StaleShards: lag.StaleShards}
			if !lag.LastAdvance.IsZero() {
				ms := time.Since(lag.LastAdvance).Milliseconds()
				rh.SinceAdvanceMS = &ms
			}
			resp.replicaHealth = rh
		}
		if *ckptPath != "" {
			// Durability lag: applied updates not yet covered by a durable
			// checkpoint. Zero means a restart loses nothing (and, with a
			// WAL, nonzero values are replayable anyway).
			resp.durabilityHealth = &durabilityHealth{
				CheckpointSteps: ckptSteps.Load(),
				WALLag:          trainedSteps.Load() - ckptSteps.Load(),
			}
		}
		status := http.StatusOK
		if snap == nil {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		// Snapshot metadata only: the session itself may be training in
		// the background and is not safe to read concurrently.
		snap, ok := loadSnap(w)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"dataset":        dsLabel,
			"role":           role,
			"nodes":          snap.N(),
			"dim":            snap.Dim(),
			"tau":            snap.Tau(),
			"snapshot_steps": snap.Steps(),
		})
	})
	// Hot serving paths: pooled request/response buffers, hand-built JSON,
	// RankInto — zero steady-state allocations (see handlers.go), including
	// the per-endpoint metric observations (metrics.go).
	mux.HandleFunc("GET /predict", instrument(epPredictGet, handlePredictGet(loadSnap)))
	mux.HandleFunc("POST /predict", instrument(epPredictPost, handlePredictPost(loadSnap)))
	mux.HandleFunc("GET /rank", instrument(epRank, handleRank(loadSnap)))
	// Prometheus text exposition for every series the process touches:
	// serving, engine, cluster, replica, transport, durability (§12).
	mux.HandleFunc("GET /metrics", metrics.Default().Handler())

	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	log.Printf("serving on %s (role=%s, refresh=%v)", *addr, role, *refresh)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("dmfserve: %v", err)
	}
	// Wait for the trainer's shutdown checkpoint before exiting.
	<-trainerDone
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}
