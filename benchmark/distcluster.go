package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccp/internal/dist"
	"ccp/internal/obs"
	"ccp/internal/partition"
)

// distCluster is a workload's deployment assembled from the dist layer's own
// constructors, the way the ccp facade assembles it, so that the traced run
// can reach every part: the partitions, the sites, the clients and the
// coordinator.
type distCluster struct {
	pi      *partition.Partitioning
	sites   []*dist.Site
	servers []*dist.Server
	serving sync.WaitGroup
	clients []dist.SiteClient
	remote  bool // clients are RemoteClients over loopback TCP
	coord   *dist.Coordinator
	dir     string
}

// buildDist mirrors deploy (and, behind it, ccp.NewClusterFromPartitioning
// and ccp.ConnectCluster): same partitioning, options and flush policy. A
// non-nil observer is wired where ClusterOptions.Observer would wire it.
func buildDist(ctx context.Context, w *workload, outDir string, observer *obs.Observer) (*distCluster, error) {
	c := &distCluster{remote: w.deploy != inProcess}
	var err error
	if c.pi, err = partition.Split(w.eu.G, w.eu.Country, w.eu.Countries); err != nil {
		return nil, err
	}
	if w.deploy == durableTCP {
		if c.dir, err = os.MkdirTemp(outDir, "sites-"); err != nil {
			return nil, err
		}
	}
	for i, p := range c.pi.Parts {
		var site *dist.Site
		if w.deploy == durableTCP {
			seed := func() (*partition.Partition, error) { return p, nil }
			site, err = dist.OpenDurableSite(filepath.Join(c.dir, fmt.Sprint(i)), seed,
				clusterOptions.SiteWorkers, storeOptions)
			if err != nil {
				c.close()
				return nil, err
			}
		} else {
			site = dist.NewSite(p, clusterOptions.SiteWorkers)
		}
		c.sites = append(c.sites, site)
		if !c.remote {
			if observer != nil {
				site.Observe(observer)
			}
			c.clients = append(c.clients, &dist.LocalClient{Site: site, MeasureBytes: true})
			continue
		}
		srv := dist.NewServer(site, dist.ServerConfig{})
		c.servers = append(c.servers, srv)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			srv.Serve(l) // returns once close() shuts the server down
		}()
		cl, err := dist.DialConfig(ctx, l.Addr().String(), dist.ClientConfig{Observer: observer})
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	c.coord = dist.NewCoordinator(c.clients, dist.Options{
		UseCache: clusterOptions.UseCache,
		Workers:  clusterOptions.CoordinatorWorkers,
		Observer: observer,
	})
	if err := c.coord.PrecomputeAll(ctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *distCluster) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, cl := range c.clients {
		if rc, ok := cl.(*dist.RemoteClient); ok {
			keep(rc.Close())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		keep(srv.Shutdown(ctx))
	}
	c.serving.Wait()
	for _, s := range c.sites {
		keep(s.CloseStore())
	}
	if c.dir != "" {
		keep(os.RemoveAll(c.dir))
	}
	return first
}

// walBytes totals the live WAL bytes of the cluster's durable stores.
func (c *distCluster) walBytes() int64 {
	var n int64
	for _, s := range c.sites {
		if st, ok := s.StoreStats(); ok {
			n += st.WALBytes
		}
	}
	return n
}
