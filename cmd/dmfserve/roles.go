package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/cluster"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/member"
	"dmfsgd/internal/replica"
	"dmfsgd/internal/transport"
)

// trainer is the trainer role. After start-up only the serve loop
// touches the session; handlers read immutable snapshots.
type trainer struct {
	*server
	ds       *dmfsgd.Dataset
	sess     *dmfsgd.Session
	chain    *dmfsgd.CheckpointChain // nil without -checkpoint
	repState *replica.State          // replica capture of lastPub
	lastPub  *dmfsgd.Snapshot
	lastSave time.Time // last periodic checkpoint save
}

// startTrainer opens or resumes the session, joins the cluster in cluster
// mode, trains what the checkpoint does not already cover of the budget,
// saves, and publishes the first snapshot.
func startTrainer(ctx context.Context, cfg config) (_ *server, err error) {
	boot, size := cfg.cluster()
	role := "standalone"
	switch {
	case size > 0 && (cfg.trainerID < 0 || cfg.trainerID >= size):
		return nil, fmt.Errorf("a cluster of %d trainers needs -trainer-id in [0,%d), got %d", size, size, cfg.trainerID)
	case size > 0:
		role = "cluster-trainer"
	case cfg.gossipAddr != "":
		role = "trainer"
	}
	t := &trainer{server: &server{cfg: cfg, role: role, dataset: cfg.dataset}}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if err := t.open(); err != nil {
		return nil, err
	}
	if size > 0 {
		if err := t.join(ctx, boot, size); err != nil {
			return nil, err
		}
	}
	budget := cfg.budget
	if budget <= 0 {
		budget = t.sess.DefaultBudget()
	}
	log.Printf("training: %s, %d nodes, k=%d, tau=%.2f", t.ds.Name, t.sess.N(), t.sess.K(), t.sess.Tau())
	began := time.Now()
	if remaining := budget - t.sess.Steps(); remaining <= 0 {
		log.Printf("budget of %d already met by the checkpoint (%d updates): nothing to retrain", budget, t.sess.Steps())
	} else if err := t.run(ctx, remaining); errors.Is(err, cluster.ErrEvicted) {
		// The local mirror is still a complete coordinate view as of the
		// last finished round, so keep serving it frozen.
		log.Printf("dmfserve: evicted from the trainer cluster; serving the last mirrored state")
	} else if err != nil {
		// Make the interrupted progress durable before exiting: a SIGTERM
		// mid-burst must not discard hours of training.
		t.save()
		return nil, fmt.Errorf("training interrupted: %w", err)
	} else {
		log.Printf("trained: %d updates in %.1fs", t.sess.Steps(), time.Since(began).Seconds())
	}
	t.save()
	if cfg.gossipAddr != "" {
		if err := t.startPeer(cfg.gossipAddr, nil, true, nil); err != nil {
			return nil, err
		}
	}
	t.publish(t.sess.Snapshot())
	switch {
	case cfg.refresh > 0:
		t.every, t.step, t.final = cfg.refresh, t.refresh, t.save
		t.lastSave = time.Now()
	case t.ctr != nil:
		// Heartbeat rounds move no state but keep failure detection live,
		// so a dead peer's shards fail over even while nothing trains.
		t.every = min(cfg.clusterTimeout/2, time.Second)
		t.step = func(ctx context.Context) error {
			if _, err := t.ctr.Step(ctx, nil); errors.Is(err, cluster.ErrEvicted) {
				log.Printf("dmfserve: evicted from the trainer cluster; heartbeats stopping")
				return err
			}
			return ctx.Err() // after ErrRoundAborted, heartbeat under the new map
		}
	}
	return t.server, nil
}

// open builds the dataset and the session: resumed from the checkpoint
// chain and the WAL tail past its barrier, or fresh. A WAL directory tees
// the canonical measurement stream.
func (t *trainer) open() error {
	cfg := t.cfg
	switch cfg.dataset {
	case "meridian":
		t.ds = dmfsgd.NewMeridianDataset(cfg.n, cfg.seed)
	case "harvard":
		t.ds = dmfsgd.NewHarvardDataset(cfg.n, 0, cfg.seed)
	case "hps3":
		t.ds = dmfsgd.NewHPS3Dataset(cfg.n, cfg.seed)
	default:
		return fmt.Errorf("unknown dataset %q (want meridian, harvard or hps3)", cfg.dataset)
	}
	opts := []dmfsgd.Option{dmfsgd.WithSeed(cfg.seed), dmfsgd.WithRank(cfg.rank)}
	if cfg.k > 0 {
		opts = append(opts, dmfsgd.WithK(cfg.k))
	}
	if cfg.shards > 0 {
		opts = append(opts, dmfsgd.WithShards(cfg.shards))
	}
	if cfg.workers > 0 {
		opts = append(opts, dmfsgd.WithWorkers(cfg.workers))
	}
	resume := false
	if cfg.ckptPath != "" {
		// Reading the chain tells whether there is anything to resume and,
		// for a stable -trainer-id, the restart contract: resume one past
		// the persisted incarnation, recorded in every checkpoint written.
		t.chain = dmfsgd.NewCheckpointChain(cfg.ckptPath, cfg.ckptBaseEvery)
		c, _, err := ckpt.LoadChain(cfg.ckptPath)
		resume = !errors.Is(err, fs.ErrNotExist)
		if resume && cfg.trainerID >= 0 {
			if err != nil {
				return fmt.Errorf("checkpoint %s: %w", cfg.ckptPath, err)
			}
			t.inc = c.Incarnation + 1
			opts = append(opts, dmfsgd.WithIncarnation(t.inc))
		}
	}
	mkSource := func() (dmfsgd.Source, error) {
		var src dmfsgd.Source
		var err error
		if t.ds.Trace != nil {
			src, err = dmfsgd.NewTraceSource(t.ds)
		} else {
			src, err = dmfsgd.NewMatrixSource(t.ds, cfg.k, cfg.seed)
		}
		if err != nil || cfg.walPath == "" {
			return src, err
		}
		return dmfsgd.WithWALDir(src, cfg.walPath, cfg.walSegBytes)
	}
	src, err := mkSource()
	if err != nil {
		return err
	}
	if resume || cfg.walPath != "" {
		// A log without a checkpoint is a cold replay (the process died
		// before its first save); an empty log is a fresh start.
		if t.chain != nil {
			t.sess, err = t.chain.Resume(t.ds, src, opts...)
		} else {
			t.sess, err = dmfsgd.ResumeSessionFromSource(t.ds, src, nil, opts...)
		}
		switch {
		case err != nil && resume:
			return fmt.Errorf("resume from %s: %w (if -wal was added or removed since the checkpoint was written, restart with the original flags, or delete the checkpoint and WAL to retrain)", cfg.ckptPath, err)
		case err != nil:
			// The log belongs to another configuration (or its checkpoint
			// is gone): start fresh rather than crash-loop.
			log.Printf("dmfserve: WAL %s not replayable into this configuration (%v); starting fresh", cfg.walPath, err)
			idxs, err := dataset.ListWALSegments(cfg.walPath)
			if err != nil {
				return fmt.Errorf("WAL dir %s: %w", cfg.walPath, err)
			}
			for _, idx := range idxs {
				if err := os.Remove(filepath.Join(cfg.walPath, dataset.WALSegmentName(idx))); err != nil {
					return fmt.Errorf("WAL dir %s: %w", cfg.walPath, err)
				}
			}
			if src, err = mkSource(); err != nil {
				return err
			}
		case resume:
			log.Printf("checkpoint restored: %d updates already trained", t.sess.Steps())
		case t.sess.Steps() > 0:
			log.Printf("WAL replayed cold: %d updates recovered without a checkpoint", t.sess.Steps())
		}
	}
	if t.sess == nil {
		if t.sess, err = dmfsgd.NewSessionFromSource(t.ds, src, opts...); err != nil {
			return err
		}
	}
	t.closers = append(t.closers, t.sess)
	if eng := t.sess.Engine(); eng != nil {
		t.shards = eng.Store().Shards()
	}
	return nil
}

// join makes the session one member of a lockstep trainer cluster of
// size trainers and waits until every member's address is known.
func (t *trainer) join(ctx context.Context, boot []string, size int) error {
	listen := t.cfg.clusterAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	lane, err := transport.ListenTCP(listen)
	if err != nil {
		return fmt.Errorf("cluster listener: %w", err)
	}
	// The membership mux splits the cluster lane: Join/Peers frames feed
	// the discovery directory, everything else the trainer's Step loop.
	cmux := member.NewMux(lane)
	t.closers = append(t.closers, cmux)
	roster := make([]uint32, size)
	for i := range roster {
		roster[i] = uint32(i)
	}
	id := uint32(t.cfg.trainerID)
	t.ctr, err = cluster.New(cluster.Config{ID: id, Incarnation: t.sess.Incarnation(), Trainers: roster,
		Transport: cmux, Engine: t.sess.Engine(), Timeout: t.cfg.clusterTimeout, Logf: log.Printf})
	if err != nil {
		return err
	}
	dir := member.NewDirectory(id, cmux, t.cfg.seed)
	dir.OnPeer(func(p member.Peer) { t.ctr.AddPeer(p.ID, p.Addr) })
	go dir.Run(ctx, 500*time.Millisecond)
	// Re-Join the bootstrap addresses until the roster is complete: peers
	// started in any order race each other's listeners, and a refused
	// first dial would otherwise leave the directory empty with no one to
	// gossip with.
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			if len(dir.Peers()) >= size-1 {
				return
			}
			for _, b := range boot {
				_ = dir.Join(b)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	log.Printf("cluster: trainer %d of %d (incarnation %d) on %s", id, size, t.sess.Incarnation(), cmux.Addr())
	if err := t.ctr.WaitRoster(ctx); err != nil {
		return fmt.Errorf("waiting for the cluster roster: %w", err)
	}
	return nil
}

// run trains total updates in lockstep cluster rounds or sequentially.
func (t *trainer) run(ctx context.Context, total int) error {
	if t.ctr != nil {
		return t.sess.RunCluster(ctx, t.ctr, total, 0)
	}
	return t.sess.Run(ctx, total)
}

// save checkpoints the session to the chain, if there is one.
func (t *trainer) save() {
	if t.chain == nil {
		return
	}
	if err := t.chain.Save(t.sess); err != nil {
		log.Printf("dmfserve: checkpoint save: %v", err)
		return
	}
	t.ckptSteps.Store(int64(t.sess.Steps()))
}

// publish swaps snap into the serving pointer and, on the replication
// tier, hands its capture to the gossip peer.
func (t *trainer) publish(snap *dmfsgd.Snapshot) {
	if snap == t.lastPub { // Session.Snapshot memoizes at quiescence: nothing moved
		return
	}
	t.lastPub = snap
	t.serving.Store(snap)
	if t.peer == nil {
		return
	}
	u, v := snap.Flat()
	st, err := replica.Update(t.repState, snap.N(), snap.Dim(), snap.StoreShards(),
		replica.Meta{Steps: uint64(snap.Steps()), Tau: snap.Tau(), Metric: uint8(t.ds.Metric)},
		snap.Versions(), u, v)
	if err != nil {
		log.Printf("dmfserve: replica capture: %v", err)
		return
	}
	t.repState = st
	t.peer.SetState(st)
}

// refresh is the -refresh loop step: one k·n increment of training, a
// publish, and a periodic checkpoint once -checkpoint-interval passed.
func (t *trainer) refresh(ctx context.Context) error {
	if err := t.run(ctx, t.sess.N()*t.sess.K()); err != nil {
		if errors.Is(err, cluster.ErrEvicted) {
			log.Printf("dmfserve: evicted from the trainer cluster; refresh loop stopping")
		}
		return err
	}
	snap := t.sess.Snapshot()
	t.publish(snap)
	if t.chain != nil && time.Since(t.lastSave) >= t.cfg.ckptEvery {
		t.save()
		t.lastSave = time.Now()
	}
	log.Printf("snapshot refreshed at %d updates", snap.Steps())
	return nil
}

// startFollower starts the read-replica role: no dataset, no training.
// State arrives over gossip from the -peer addresses; with -checkpoint
// the replica serves its saved state before the first gossip pull, and
// the serve loop saves whatever gossip converges to.
func startFollower(cfg config) (*server, error) {
	if _, size := cfg.cluster(); size > 0 {
		return nil, errors.New("-cluster-size/-cluster-peers describe a trainer role; drop -peer")
	}
	s := &server{cfg: cfg, role: "follower", dataset: "replicated"}
	// One read of the checkpoint chain yields the state to serve before
	// gossip, the version vector that makes gossip pull only the shards
	// that advanced while the replica was down, and the incarnation to
	// announce one past.
	var saved *replica.State
	var cw *ckpt.ChainWriter
	if cfg.ckptPath != "" {
		cw = ckpt.NewChainWriter(cfg.ckptPath, cfg.ckptBaseEvery)
		c, deltas, err := ckpt.LoadChain(cfg.ckptPath)
		switch {
		case err == nil:
			cw.Resume(slices.Clone(c.Vers), deltas)
			if saved, err = replica.FromCheckpoint(c); err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", cfg.ckptPath, err)
			}
			s.inc = c.Incarnation + 1
			log.Printf("checkpoint restored: %d updates (base + %d deltas), serving before first gossip pull", saved.Meta.Steps, deltas)
		case !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("checkpoint %s: %w", cfg.ckptPath, err)
		}
	}
	// Publish serves over the replicated state's immutable per-shard
	// blocks; blocks shared with the previous snapshot skip re-validation.
	// It runs here, before gossip starts, then on the peer's Run goroutine.
	var prev *dmfsgd.Snapshot
	publish := func(st *replica.State) {
		bu, bv := st.Blocks()
		snap, err := dmfsgd.NewSnapshotBlocks(dmfsgd.Metric(st.Meta.Metric), st.Meta.Tau,
			int(st.Meta.Steps), st.Rank, st.N, st.Shards, bu, bv, st.Vers(), prev)
		if err != nil {
			log.Printf("dmfserve: replicated state rejected: %v", err)
			return
		}
		prev = snap
		s.serving.Store(snap)
	}
	if err := s.startPeer(cfg.gossipAddr, strings.Split(cfg.peers, ","), false, publish); err != nil {
		return nil, err
	}
	if saved != nil {
		s.peer.SetState(saved)
		publish(saved)
		s.ckptSteps.Store(int64(saved.Meta.Steps))
	}
	if cw != nil {
		save := func() {
			st := s.peer.State()
			if st == nil || uint64(s.ckptSteps.Load()) == st.Meta.Steps {
				return
			}
			if _, err := cw.Save(st.Checkpoint()); err != nil {
				log.Printf("dmfserve: checkpoint save: %v", err)
				return
			}
			s.ckptSteps.Store(int64(st.Meta.Steps))
		}
		s.every, s.final = cfg.ckptEvery, save
		s.step = func(context.Context) error { save(); return nil }
	}
	return s, nil
}
