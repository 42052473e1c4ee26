// Command dmfnode runs one DMFSGD node over real UDP: it joins a swarm
// through any known peer, discovers neighbors via the membership protocol,
// probes them periodically, and refines its coordinates from the replies.
//
// Start a bootstrap node, then join others to it:
//
//	dmfnode -id 1 -listen 127.0.0.1:9001
//	dmfnode -id 2 -listen 127.0.0.1:9002 -join 127.0.0.1:9001
//	dmfnode -id 3 -listen 127.0.0.1:9003 -join 127.0.0.1:9001
//
// Each node prints its status once per second: neighbor count, probes,
// updates, and its current coordinates' norm. RTTs are measured by wall
// clock (localhost RTTs are sub-millisecond, so with the default τ of
// 1ms everything on one machine classifies "good"; use -tau to
// experiment, or -delay-ms to have this node delay its replies and appear
// slow to its peers).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/member"
	"dmfsgd/internal/metrics"
	"dmfsgd/internal/runtime"
	"dmfsgd/internal/sgd"
	"dmfsgd/internal/transport"
	"dmfsgd/internal/vec"
)

func main() {
	var (
		id       = flag.Uint("id", 0, "node ID (unique in the swarm, required)")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		join     = flag.String("join", "", "bootstrap peer address (empty = first node)")
		tau      = flag.Float64("tau", 1.0, "RTT classification threshold (ms)")
		rank     = flag.Int("rank", 10, "factorization rank r")
		eta      = flag.Float64("eta", 0.1, "SGD learning rate")
		lambda   = flag.Float64("lambda", 0.1, "regularization coefficient")
		k        = flag.Int("k", 32, "maximum neighbor count")
		interval = flag.Duration("interval", 100*time.Millisecond, "probe interval")
		delayMS  = flag.Float64("delay-ms", 0, "artificial reply delay in ms (simulates a slow node)")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until signal)")

		ckptPath  = flag.String("checkpoint", "", "coordinate checkpoint file: restored at startup (the node rejoins with warm coordinates instead of relearning), saved periodically and at exit via atomic rename")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint save period")

		metricsAddr = flag.String("metrics", "", "observability: expose GET /metrics (Prometheus text) and GET /healthz on this HTTP address, e.g. 127.0.0.1:6070; empty = off")
		tracePath   = flag.String("trace", "", "observability: append NDJSON trace events ("+metrics.TraceSchema+") to this file; empty = off")
	)
	flag.Parse()
	if *id == 0 {
		fmt.Fprintln(os.Stderr, "dmfnode: -id is required and must be nonzero")
		os.Exit(2)
	}

	if *tracePath != "" {
		tw, err := metrics.OpenTraceFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		metrics.SetTrace(tw)
		defer tw.Close()
	}

	udp, err := transport.ListenUDP(*listen)
	if err != nil {
		fatal(err)
	}
	defer udp.Close()

	var tr transport.Transport = udp
	if *delayMS > 0 {
		tr = &delayedTransport{Transport: udp, delay: time.Duration(*delayMS * float64(time.Millisecond))}
	}
	mux := member.NewMux(tr)

	cfg := sgd.Config{Rank: *rank, LearningRate: *eta, Lambda: *lambda, Loss: sgd.Defaults().Loss}
	node, err := runtime.NewNode(runtime.Config{
		ID:            uint32(*id),
		Metric:        dataset.RTT,
		SGD:           cfg,
		Tau:           *tau,
		Neighbors:     map[uint32]string{},
		ProbeInterval: *interval,
		AllowDynamic:  true,
		MaxNeighbors:  *k,
		Seed:          int64(*id),
	}, mux)
	if err != nil {
		fatal(err)
	}

	// Durability: one node's state is its (U, V) pair — an n=1 checkpoint
	// of one shard, whose block is the node's two rows.
	// Restored before probing starts, so a restarted node serves and
	// refines warm coordinates instead of relearning from random init.
	// baseSteps carries the update history restored from a previous
	// checkpoint, so saves accumulate across restarts instead of
	// resetting the counter to this process's own update count.
	var baseSteps uint64
	saveCkpt := func() {
		if *ckptPath == "" {
			return
		}
		c := node.Coordinates()
		steps := baseSteps + uint64(node.Stats().Updates)
		err := ckpt.WriteFile(*ckptPath, &ckpt.Checkpoint{
			N: 1, Rank: *rank, Shards: 1,
			Steps: steps,
			Tau:   *tau, Eta: *eta, Lambda: *lambda,
			Metric: uint8(dataset.RTT),
			Vers:   []uint64{steps},
			U:      [][]float64{c.U}, V: [][]float64{c.V},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmfnode: checkpoint save: %v\n", err)
		}
	}
	if *ckptPath != "" {
		c, err := ckpt.ReadFile(*ckptPath)
		switch {
		case err == nil:
			if c.N != 1 || c.Rank != *rank {
				fatal(fmt.Errorf("checkpoint %s holds n=%d rank=%d state, this node wants n=1 rank=%d", *ckptPath, c.N, c.Rank, *rank))
			}
			node.Ref().Set(&sgd.Coordinates{U: c.U[0], V: c.V[0]})
			baseSteps = c.Steps
			fmt.Printf("dmfnode: coordinates restored from %s (%d updates of history)\n", *ckptPath, c.Steps)
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to restore.
		default:
			fatal(err)
		}
	}

	// Observability listener: the swarm node speaks UDP only, so /metrics
	// and /healthz get their own small HTTP endpoint. The node gauges are
	// GaugeFuncs over the same Stats() the status line prints.
	if *metricsAddr != "" {
		reg := metrics.Default()
		reg.GaugeFunc("dmf_node_neighbors",
			"Current neighbor count.",
			func() float64 { return float64(node.NeighborCount()) })
		reg.GaugeFunc("dmf_node_probes_sent",
			"Probes sent since start.",
			func() float64 { return float64(node.Stats().ProbesSent) })
		reg.GaugeFunc("dmf_node_updates",
			"Coordinate updates applied since start.",
			func() float64 { return float64(node.Stats().Updates) })
		hm := http.NewServeMux()
		hm.HandleFunc("GET /metrics", reg.Handler())
		hm.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			st := node.Stats()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"status\":\"ok\",\"id\":%d,\"neighbors\":%d,\"probes_sent\":%d,\"updates\":%d}\n",
				*id, node.NeighborCount(), st.ProbesSent, st.Updates)
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dmfnode: metrics on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, hm)
	}

	dir := member.NewDirectory(uint32(*id), mux, int64(*id))
	dir.OnPeer(func(p member.Peer) {
		if node.AddNeighbor(p.ID, p.Addr) {
			fmt.Printf("dmfnode: learned peer %d at %s\n", p.ID, p.Addr)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			cancel()
		}()
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
			cancel()
		case <-ctx.Done():
		}
	}()

	go dir.Run(ctx, 2*time.Second)
	if *join != "" {
		if err := dir.Join(*join); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("dmfnode: id=%d listening on %s (tau=%.2fms, rank=%d)\n", *id, udp.Addr(), *tau, *rank)

	// The periodic saver is joined before the final shutdown save, so a
	// stale in-flight periodic capture cannot rename over it.
	saverDone := make(chan struct{})
	if *ckptPath != "" {
		go func() {
			defer close(saverDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					saveCkpt()
				}
			}
		}()
	} else {
		close(saverDone)
	}

	go statusLoop(ctx, node)
	node.Run(ctx)
	cancel() // node.Run can also end by -duration; release the saver either way
	<-saverDone
	saveCkpt()
	st := node.Stats()
	fmt.Printf("dmfnode: done. probes=%d replies=%d updates=%d rejected=%d stale=%d decode-errors=%d\n",
		st.ProbesSent, st.RepliesReceived, st.Updates, st.Rejected, st.Stale, st.DecodeErrors)
}

func statusLoop(ctx context.Context, node *runtime.Node) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st := node.Stats()
			c := node.Coordinates()
			fmt.Printf("dmfnode: neighbors=%d probes=%d updates=%d |u|=%.3f |v|=%.3f\n",
				node.NeighborCount(), st.ProbesSent, st.Updates,
				vec.Norm2(c.U), vec.Norm2(c.V))
		}
	}
}

// delayedTransport delays outgoing probe replies so this node appears
// distant to its peers (wall-clock RTT measurement sees the delay).
type delayedTransport struct {
	transport.Transport
	delay time.Duration
}

func (d *delayedTransport) Send(to string, data []byte) error {
	time.Sleep(d.delay)
	return d.Transport.Send(to, data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmfnode:", err)
	os.Exit(1)
}
