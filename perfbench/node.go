package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/cluster"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// atlasd's defaults, which every node the benchmark boots runs with.
const (
	atlasdShards          = 4
	atlasdCheckpointEvery = 4096
	atlasdFsync           = "always"
	clusterPeers          = 3
	clusterPartitions     = 12
)

// nodeConfig selects how one atlasd-equivalent node is assembled.
type nodeConfig struct {
	ds     *atlasdata.Dataset // served on the batch routes and source of pfx2as, as with atlasd -seed
	walDir string             // durable ingest when set (atlasd -wal-dir)
	fs     wal.FS             // WAL filesystem; nil is the real one
	total  int                // cluster partition count, 0 for a single node
	owned  []int              // partitions a peer owns
	nodeID string             // cluster peer ID
	wrap   func(http.Handler) http.Handler
}

// node is one running atlasd -live assembled in process: the same
// constructors, defaults and middleware order as cmd/atlasd, served on
// a loopback listener.
type node struct {
	ing  *stream.Ingester
	tier *serve.Tier
	reg  *obs.Registry
	srv  *http.Server
	url  string
	done chan error
}

// serveLoopback serves h on a fresh 127.0.0.1 port with atlasd's
// server timeouts and returns the server, its base URL and the channel
// Serve's result arrives on.
func serveLoopback(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h, ReadTimeout: 30 * time.Second, WriteTimeout: 60 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), done, nil
}

// shutdown stops a loopback server and waits for Serve to return.
func shutdown(srv *http.Server, done chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func startNode(cfg nodeConfig) (*node, error) {
	reg := obs.NewRegistry()
	scfg := stream.Config{
		Shards:          atlasdShards,
		CheckpointEvery: atlasdCheckpointEvery,
		Metrics:         reg,
		Analysis:        true,
		Pfx2AS:          cfg.ds.Pfx2AS,
	}
	if cfg.total > 0 {
		scfg.TotalPartitions = cfg.total
		scfg.OwnedPartitions = cfg.owned
	}
	var ing *stream.Ingester
	if cfg.walDir != "" {
		pol, err := wal.ParseSyncPolicy(atlasdFsync)
		if err != nil {
			return nil, err
		}
		scfg.WALDir, scfg.Sync, scfg.FS = cfg.walDir, pol, cfg.fs
		recovered, _, err := stream.Recover(scfg)
		if err != nil {
			return nil, fmt.Errorf("opening WAL %s: %w", cfg.walDir, err)
		}
		ing = recovered
	} else {
		ing = stream.NewIngester(scfg)
	}

	mux := http.NewServeMux()
	batch := atlasapi.NewServer(cfg.ds)
	batch.SetMetrics(reg)
	mux.Handle("/", batch)
	health := &atlasapi.Health{}
	root := http.NewServeMux()
	health.Register(root)
	root.Handle("/metrics", obs.Handler(reg))
	root.Handle("/", atlasapi.InstrumentHTTP(reg, mux))

	adm := atlasapi.NewAdmission(atlasapi.AdmissionConfig{
		MaxInFlight: atlasapi.DefaultMaxInFlight,
		MaxWait:     atlasapi.DefaultMaxWait,
		HighWater:   atlasapi.DefaultHighWater,
		RetryAfter:  atlasapi.DefaultRetryAfter,
	}, ing.QueuePressure, reg)
	health.SetDegraded(func() int { return len(ing.DegradedShards()) })
	tier := serve.NewTier(ing, serve.WithMetrics(reg), serve.WithMaxStaleness(serve.DefaultMaxStaleness))
	opts := []atlasapi.LiveOption{
		atlasapi.WithLiveMetrics(reg),
		atlasapi.WithMaxBatchBytes(atlasapi.DefaultMaxBatchBytes),
		atlasapi.WithV1Routes(true),
		atlasapi.WithAdmission(adm),
		atlasapi.WithServeTier(tier),
	}
	if cfg.nodeID != "" {
		opts = append(opts, atlasapi.WithClusterNode(cfg.nodeID))
		health.SetNodeID(cfg.nodeID)
	}
	ls := atlasapi.NewLiveServer(ing, opts...)
	mux.Handle(atlasapi.RouteStreamRecords, ls)
	mux.Handle("/api/v1/stream/", ls)
	mux.Handle("/api/v1/live/", ls)
	if cfg.nodeID != "" {
		mux.Handle("/api/v1/cluster/", ls)
	}

	var h http.Handler = atlasapi.RecoverPanics(root, nil)
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	srv, url, done, err := serveLoopback(h)
	if err != nil {
		ing.Close()
		return nil, err
	}
	health.SetReady(true)
	return &node{ing: ing, tier: tier, reg: reg, srv: srv, url: url, done: done}, nil
}

// close stops the listener, then drains and closes the ingester.
func (n *node) close() error {
	err := shutdown(n.srv, n.done)
	if cerr := n.ing.Close(); err == nil {
		err = cerr
	}
	return err
}

// clusterSys is a coordinator in front of ring-assigned in-memory
// peers, each peer an atlasd -live -node-id pX -partitions-total 12.
type clusterSys struct {
	peers []*node
	srv   *http.Server
	url   string
	done  chan error
}

// startCluster boots the peers, then the coordinator over them. client
// is the coordinator's inter-peer client (atlasd: a 30 s timeout).
func startCluster(ds *atlasdata.Dataset, client *http.Client, wrapPeer, wrapCoord func(http.Handler) http.Handler) (*clusterSys, error) {
	ids := make([]string, clusterPeers)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	ring, err := cluster.NewRing(ids, clusterPartitions)
	if err != nil {
		return nil, err
	}
	cs := &clusterSys{}
	var peers []cluster.Peer
	for _, id := range ids {
		owned := ring.Partitions(id)
		if owned == nil {
			owned = []int{}
		}
		n, err := startNode(nodeConfig{ds: ds, total: clusterPartitions, owned: owned, nodeID: id, wrap: wrapPeer})
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.peers = append(cs.peers, n)
		peers = append(peers, cluster.Peer{ID: id, URL: n.url})
	}
	coord, err := cluster.New(cluster.Config{
		Peers:           peers,
		TotalPartitions: clusterPartitions,
		RetryAfter:      atlasapi.DefaultRetryAfter,
		MaxBatchBytes:   atlasapi.DefaultMaxBatchBytes,
		Client:          client,
	})
	if err != nil {
		cs.close()
		return nil, err
	}
	reg := obs.NewRegistry()
	health := &atlasapi.Health{}
	root := http.NewServeMux()
	health.Register(root)
	root.Handle("/metrics", obs.Handler(reg))
	root.Handle("/", atlasapi.InstrumentHTTP(reg, coord))
	var h http.Handler = atlasapi.RecoverPanics(root, nil)
	if wrapCoord != nil {
		h = wrapCoord(h)
	}
	if cs.srv, cs.url, cs.done, err = serveLoopback(h); err != nil {
		cs.close()
		return nil, err
	}
	health.SetReady(true)
	return cs, nil
}

func (cs *clusterSys) close() error {
	var err error
	if cs.srv != nil {
		err = shutdown(cs.srv, cs.done)
	}
	for _, p := range cs.peers {
		if perr := p.close(); err == nil {
			err = perr
		}
	}
	return err
}
