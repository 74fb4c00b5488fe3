package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccp"
)

// storeOptions is the flush policy of the durable workloads: fsync on every
// commit (the production default) and no background checkpoints, so no timer
// fires inside a timed pass.
var storeOptions = ccp.StoreOptions{CheckpointEvery: -1, CheckpointBytes: -1}

// clusterOptions is the configuration every workload measures: cached
// partial answers, one worker per site and at the coordinator, no admission
// gate, no observer.
var clusterOptions = ccp.ClusterOptions{UseCache: true, SiteWorkers: 1, CoordinatorWorkers: 1}

// deployment is one workload's cluster built through the public facade, with
// whatever servers and directories stand behind it.
type deployment struct {
	cluster *ccp.Cluster
	servers []*ccp.SiteServer
	serving sync.WaitGroup
	dir     string // durable sites' data root, removed on close
}

// deploy builds w's cluster from the in-memory graph — split, site
// construction (WAL open, listen and dial where the transport has them) and
// Precompute — and answers the set-up query. It is the whole of what
// setup_s times.
func deploy(ctx context.Context, w *workload, outDir string) (*deployment, error) {
	d := &deployment{}
	pi, err := ccp.PartitionByAssignment(w.eu.G, w.eu.Country, w.eu.Countries)
	if err != nil {
		return nil, err
	}
	if w.deploy == inProcess {
		if d.cluster, err = ccp.NewClusterFromPartitioning(pi, clusterOptions); err != nil {
			return nil, err
		}
	} else {
		if w.deploy == durableTCP {
			if d.dir, err = os.MkdirTemp(outDir, "sites-"); err != nil {
				return nil, err
			}
		}
		addrs := make([]string, len(pi.Parts))
		for i, p := range pi.Parts {
			var srv *ccp.SiteServer
			if w.deploy == durableTCP {
				seed := func() (*ccp.Partition, error) { return p, nil }
				srv, err = ccp.NewDurableSiteServer(filepath.Join(d.dir, fmt.Sprint(i)), seed,
					clusterOptions.SiteWorkers, storeOptions)
				if err != nil {
					d.close()
					return nil, err
				}
			} else {
				srv = ccp.NewSiteServer(p, clusterOptions.SiteWorkers)
			}
			d.servers = append(d.servers, srv)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				d.close()
				return nil, err
			}
			d.serving.Add(1)
			go func() {
				defer d.serving.Done()
				srv.Serve(l) // returns once close() shuts the server down
			}()
			addrs[i] = l.Addr().String()
		}
		if d.cluster, err = ccp.ConnectCluster(ctx, addrs, clusterOptions); err != nil {
			d.close()
			return nil, err
		}
	}
	if err := d.cluster.Precompute(ctx); err != nil {
		d.close()
		return nil, err
	}
	ans, _, err := d.cluster.Controls(ctx, w.setupQuery.S, w.setupQuery.T)
	if err == nil && ans != w.setupAnswer {
		err = fmt.Errorf("set-up query %v answered %v, oracle says %v", w.setupQuery, ans, w.setupAnswer)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close releases the cluster's connections, drains and stops every server,
// waits for the serving goroutines, closes the stores and removes their data.
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if d.cluster != nil {
		keep(d.cluster.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range d.servers {
		keep(srv.Shutdown(ctx))
	}
	d.serving.Wait()
	for _, srv := range d.servers {
		keep(srv.CloseStore())
	}
	if d.dir != "" {
		keep(os.RemoveAll(d.dir))
	}
	return first
}
