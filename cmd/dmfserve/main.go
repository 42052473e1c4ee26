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
// A process runs one of two roles (roles.go) over one serve core
// (server, below): a trainer, or with -peer a follower. The core owns the
// serving pointer, the endpoints, the durability gauges and one loop that
// runs the role's step each interval — a refresh burst, a cluster
// heartbeat or a follower checkpoint save — and its save at shutdown.
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
// its -checkpoint and the given peers, keeps it fresh by pulling only the
// shards whose version advanced, and publishes its replication lag at
// /healthz. Reads never block on replication — a replica serves whatever
// immutable snapshot it holds while newer shards stream in.
//
// Endpoints:
//
//	GET  /healthz                          liveness, update counter, replication lag
//	GET  /stats                            session and snapshot metadata
//	GET  /predict?i=3&j=77                 one path: score and class
//	POST /predict {"pairs":[[3,77],...]}   batch prediction
//	GET  /rank?i=3&candidates=4,9,12       §6.4 peer ranking, best first
//	GET  /metrics                          Prometheus text exposition
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
	"io"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmfsgd"
	"dmfsgd/internal/cluster"
	"dmfsgd/internal/metrics"
	"dmfsgd/internal/replica"
	"dmfsgd/internal/transport"
)

// config is the parsed command line: one field per flag.
type config struct {
	addr, dataset, clusterAddr, clusterPeers, gossipAddr, peers string
	ckptPath, walPath, pprofAddr, tracePath                     string
	n, rank, k, shards, workers, budget                         int
	trainerID, clusterSize, ckptBaseEvery                       int
	seed, walSegBytes                                           int64
	refresh, clusterTimeout, gossipEvery, ckptEvery             time.Duration
}

// register binds every flag to its config field.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", "meridian", "dataset: meridian, harvard or hps3")
	fs.IntVar(&c.n, "n", 500, "node count (0 = dataset original scale)")
	fs.Int64Var(&c.seed, "seed", 1, "seed for dataset generation and training")
	fs.IntVar(&c.rank, "rank", 10, "coordinate dimensionality")
	fs.IntVar(&c.k, "k", 0, "neighbors per node (0 = dataset default)")
	fs.IntVar(&c.shards, "shards", 0, "coordinate store shards (0 = default)")
	fs.IntVar(&c.workers, "workers", 0, "training/eval goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&c.budget, "budget", 0, "training update budget (0 = paper default, 20·k·n)")
	fs.DurationVar(&c.refresh, "refresh", 0, "keep training and swap a fresh snapshot at this interval (0 = train once, serve frozen)")
	fs.IntVar(&c.trainerID, "trainer-id", -1, "stable trainer identity (0..T-1) in a trainer cluster; alone it only adds the cluster fields to /healthz")
	fs.IntVar(&c.clusterSize, "cluster-size", 0, "trainer count T; ids are 0..T-1 (enables cluster mode, even at T=1)")
	fs.StringVar(&c.clusterAddr, "cluster-addr", "", "trainer-cluster transport listen address (TCP; default 127.0.0.1:0)")
	fs.StringVar(&c.clusterPeers, "cluster-peers", "", "comma-separated bootstrap -cluster-addr addresses of other trainers (enables cluster mode)")
	fs.DurationVar(&c.clusterTimeout, "cluster-timeout", 5*time.Second, "lockstep barrier timeout; a trainer missing it is declared dead and failed over")
	fs.StringVar(&c.gossipAddr, "gossip", "", "replication gossip listen address (TCP); joins the replication tier")
	fs.StringVar(&c.peers, "peer", "", "comma-separated bootstrap gossip peers; serve as a read replica (no local training)")
	fs.DurationVar(&c.gossipEvery, "gossip-interval", 500*time.Millisecond, "anti-entropy gossip period")
	fs.StringVar(&c.ckptPath, "checkpoint", "", "durability: checkpoint file — restored at startup (restart-without-retrain), saved after training bursts, periodically and at shutdown, always via atomic rename")
	fs.StringVar(&c.walPath, "wal", "", "durability: measurement write-ahead log directory (trainer only) — the training stream is teed into rotating segment files whose tail is replayed on restart; checkpoint barriers delete the covered segments")
	fs.DurationVar(&c.ckptEvery, "checkpoint-interval", 30*time.Second, "minimum period between periodic checkpoint saves while training continues")
	fs.IntVar(&c.ckptBaseEvery, "checkpoint-base-every", 0, "durability: save incremental delta checkpoints (only the shards that advanced), rolling a fresh full base after this many deltas; 0 = rewrite the full checkpoint every save")
	fs.Int64Var(&c.walSegBytes, "wal-segments", 0, "durability: start a new -wal segment past this many bytes (0 = 64 MiB)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "profiling: expose net/http/pprof on this separate (loopback) listener, e.g. 127.0.0.1:6060; empty = off")
	fs.StringVar(&c.tracePath, "trace", "", "observability: append NDJSON round/epoch/gossip trace events ("+metrics.TraceSchema+") to this file; empty = off")
}

// cluster returns the -cluster-peers bootstrap addresses and the trainer
// count: 0 unless -cluster-size or -cluster-peers turn cluster mode on.
func (c config) cluster() (boot []string, size int) {
	for _, a := range strings.Split(c.clusterPeers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			boot = append(boot, a)
		}
	}
	if c.clusterSize <= 0 && len(boot) == 0 {
		return nil, 0
	}
	return boot, max(c.clusterSize, 1+len(boot))
}

// start starts the role the flags pick: with -peer a follower, else a trainer.
func start(ctx context.Context, cfg config) (*server, error) {
	if cfg.peers != "" {
		return startFollower(cfg)
	}
	return startTrainer(ctx, cfg)
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()

	if cfg.pprofAddr != "" {
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
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			log.Fatalf("dmfserve: pprof listener %s: %v", cfg.pprofAddr, err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
		go func() {
			if err := http.Serve(ln, pm); err != nil {
				log.Printf("dmfserve: pprof: %v", err)
			}
		}()
	}

	if cfg.tracePath != "" {
		tw, err := metrics.OpenTraceFile(cfg.tracePath)
		if err != nil {
			log.Fatalf("dmfserve: trace %s: %v", cfg.tracePath, err)
		}
		metrics.SetTrace(tw)
		defer tw.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The trainer role trains its budget inside start, so -addr only
	// starts listening once there is a snapshot to serve.
	s, err := start(ctx, cfg)
	if err != nil {
		log.Fatalf("dmfserve: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("dmfserve: %v", err)
	}
	if err := s.serve(ctx, ln); err != nil {
		log.Fatalf("dmfserve: %v", err)
	}
}

// server is the serve core both roles share: a role's start function
// fills it in, serve runs it.
type server struct {
	cfg           config
	role, dataset string // the /healthz and /stats role, the /stats dataset label
	// serving is what handlers load, once per request. On a follower it
	// is nil until its checkpoint or first gossip pull lands.
	serving   atomic.Pointer[dmfsgd.Snapshot]
	ckptSteps atomic.Int64 // steps the latest durable checkpoint covers
	// inc numbers this process lifetime of the identity: the persisted
	// checkpoint incarnation plus one, so the restarted lineage dominates
	// everything the previous life wrote. 0 on a fresh start.
	inc    uint32
	shards int              // store shards, for the bare -trainer-id /healthz fields
	ctr    *cluster.Trainer // nil outside cluster mode
	peer   *replica.Peer    // nil when the replication tier is off
	gossip *transport.TCP   // the peer's listener
	// The role's background work, run by loop.
	every   time.Duration
	step    func(context.Context) error
	final   func()
	closers []io.Closer // released by close, newest first
}

// startPeer joins the replication tier on listen (default loopback): a
// source feeds pulling replicas, others pull. Gossip starts in serve.
func (s *server) startPeer(listen string, peers []string, source bool, onState func(*replica.State)) error {
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	tr, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, tr)
	// A stable -trainer-id (rather than the pid) keeps the gossip
	// identity attached to the incarnation lineage across restarts, so
	// followers re-admit a restarted trainer instead of blackholing it.
	id := uint32(os.Getpid())
	if s.cfg.trainerID >= 0 {
		id = uint32(s.cfg.trainerID)
	}
	s.gossip = tr
	s.peer = replica.NewPeer(replica.Config{ID: id, Incarnation: s.inc, Transport: tr, Peers: peers,
		Interval: s.cfg.gossipEvery, Seed: s.cfg.seed, Source: source, OnState: onState, Logf: log.Printf})
	log.Printf("replication: %s gossiping on %s (interval %v)", s.role, tr.Addr(), s.cfg.gossipEvery)
	return nil
}

// serve answers HTTP on ln and runs the role's loop on the calling
// goroutine until ctx ends or the HTTP server fails, then shuts down and
// releases the role's resources.
func (s *server) serve(ctx context.Context, ln net.Listener) error {
	defer s.close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	if s.peer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.peer.Run(ctx)
		}()
	}
	srv := &http.Server{Handler: s.handler()}
	served := make(chan error, 1)
	go func() {
		served <- srv.Serve(ln)
		cancel()
	}()
	log.Printf("serving on %s (role=%s, refresh=%v)", s.cfg.addr, s.role, s.cfg.refresh)
	s.loop(ctx)
	shutCtx, stop := context.WithTimeout(context.Background(), 3*time.Second)
	defer stop()
	srv.Shutdown(shutCtx)
	wg.Wait()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loop is the process's one background loop: every s.every it runs the
// role's step — a refresh burst, a cluster heartbeat round or a follower
// checkpoint save. When ctx ends, or once a step fails, it runs the
// role's final save (if any) and waits for ctx.
func (s *server) loop(ctx context.Context) {
	if s.every > 0 {
		tick := time.NewTicker(s.every)
		defer tick.Stop()
		for err := error(nil); err == nil; {
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-tick.C:
				err = s.step(ctx)
			}
		}
		if s.final != nil {
			s.final()
		}
	}
	<-ctx.Done()
}

// close releases what the role opened; on the way out no one is left to
// act on a close error.
func (s *server) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i].Close()
	}
}

// servedSteps is the update count folded into the serving snapshot.
func (s *server) servedSteps() int64 {
	if snap := s.serving.Load(); snap != nil {
		return int64(snap.Steps())
	}
	return 0
}

// handler registers the serving gauges and builds the mux.
func (s *server) handler() http.Handler {
	// The /healthz quantities as gauges, from the same bookkeeping
	// (healthReply documents the correspondence).
	reg := metrics.Default()
	reg.GaugeFunc("dmf_serving_ready",
		"1 once a serving snapshot is published (healthz status=ok).",
		func() float64 {
			if s.serving.Load() != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dmf_serving_steps",
		"Updates folded into the serving snapshot (healthz steps).",
		func() float64 { return float64(s.servedSteps()) })
	if s.cfg.ckptPath != "" {
		reg.GaugeFunc("dmf_ckpt_covered_steps",
			"Updates covered by the latest durable checkpoint (healthz checkpoint_steps).",
			func() float64 { return float64(s.ckptSteps.Load()) })
		reg.GaugeFunc("dmf_wal_lag_steps",
			"Applied updates not yet covered by a durable checkpoint (healthz wal_lag).",
			func() float64 { return float64(s.servedSteps() - s.ckptSteps.Load()) })
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /stats", s.stats)
	// Hot serving paths: zero steady-state allocations (handlers.go),
	// per-endpoint metrics included (metrics.go).
	mux.HandleFunc("GET /predict", instrument(epPredictGet, handlePredictGet(s.load)))
	mux.HandleFunc("POST /predict", instrument(epPredictPost, handlePredictPost(s.load)))
	mux.HandleFunc("GET /rank", instrument(epRank, handleRank(s.load)))
	mux.HandleFunc("GET /metrics", reg.Handler())
	return mux
}

// load answers 503 while a follower has not bootstrapped yet.
func (s *server) load(w http.ResponseWriter) (*dmfsgd.Snapshot, bool) {
	snap := s.serving.Load()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "replica syncing: no snapshot yet"})
		return nil, false
	}
	return snap, true
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	resp := healthReply{Status: "ok", Role: s.role}
	status := http.StatusOK
	if snap := s.serving.Load(); snap == nil {
		resp.Status, status = "syncing", http.StatusServiceUnavailable
	} else {
		resp.Steps = int64(snap.Steps())
	}
	if s.ctr != nil {
		ch := clusterHealth(s.ctr.Status())
		resp.clusterHealth = &ch
	} else if s.cfg.trainerID >= 0 {
		// A cluster identity outside cluster mode: the degenerate cluster
		// of one, every shard owned here.
		id := uint32(s.cfg.trainerID)
		resp.clusterHealth = &clusterHealth{ID: id, Incarnation: s.inc, Shards: s.shards,
			OwnedShards: s.shards, Owners: slices.Repeat([]uint32{id}, s.shards), Live: []uint32{id}}
	}
	if s.peer != nil {
		lag := s.peer.Lag()
		resp.replicaHealth = &replicaHealth{LagSteps: lag.StepsBehind, StaleShards: lag.StaleShards}
		if !lag.LastAdvance.IsZero() {
			ms := time.Since(lag.LastAdvance).Milliseconds()
			resp.SinceAdvanceMS = &ms
		}
	}
	if s.cfg.ckptPath != "" {
		// Zero wal_lag means a restart loses nothing (and, with a WAL,
		// nonzero values are replayable anyway).
		ck := s.ckptSteps.Load()
		resp.durabilityHealth = &durabilityHealth{CheckpointSteps: ck, WALLag: resp.Steps - ck}
	}
	writeJSON(w, status, resp)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.load(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":        s.dataset,
		"role":           s.role,
		"nodes":          snap.N(),
		"dim":            snap.Dim(),
		"tau":            snap.Tau(),
		"snapshot_steps": snap.Steps(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}
