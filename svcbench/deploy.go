package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"artery/internal/cluster"
	"artery/internal/server"
	"artery/internal/store"
)

// service is what a node serves: a single-node server or a coordinator.
type service interface {
	Handler() http.Handler
	Start()
	Shutdown(ctx context.Context) error
}

// node is one in-process arteryd on an ephemeral port.
type node struct {
	url string
	svc service
	hs  *http.Server
	// served is closed once the HTTP serve loop has returned.
	served chan struct{}
}

func startNode(svc service) (*node, error) {
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), svc: svc, hs: &http.Server{Handler: svc.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// stop drains the service, then closes its listener and connections at
// once: http.Server.Shutdown would wait up to 5 s on every connection a
// canceled health probe left without a request.
func (n *node) stop(ctx context.Context) error {
	err := n.svc.Shutdown(ctx)
	if herr := n.hs.Close(); err == nil {
		err = herr
	}
	<-n.served
	return err
}

// deployment is the system under test: the entry node clients talk to,
// plus, for a fleet, its backends and journal.
type deployment struct {
	entry    *node
	backends []*node
	st       *store.Store
	dataDir  string
}

// deploy boots the workload's deployment and waits until every node
// answers /readyz with 200. dataDir holds the fleet's journal.
func deploy(ctx context.Context, fleet bool, dataDir string) (*deployment, error) {
	d := &deployment{}
	if !fleet {
		n, err := startNode(server.New(server.Config{}))
		if err != nil {
			return nil, err
		}
		d.entry = n
		return d, d.waitReady(ctx)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(server.New(server.Config{WorkerBudget: 1}))
		if err != nil {
			d.close()
			return nil, err
		}
		d.backends = append(d.backends, n)
		urls = append(urls, n.url)
	}
	st, err := store.Open(store.Config{Dir: dataDir, Fsync: store.FsyncInterval})
	if err != nil {
		d.close()
		return nil, err
	}
	d.st, d.dataDir = st, dataDir
	co, err := cluster.New(cluster.Config{Backends: urls, Store: st})
	if err != nil {
		d.close()
		return nil, err
	}
	if d.entry, err = startNode(co); err != nil {
		d.close()
		return nil, err
	}
	return d, d.waitReady(ctx)
}

func (d *deployment) nodes() []*node {
	var ns []*node
	if d.entry != nil {
		ns = append(ns, d.entry)
	}
	return append(ns, d.backends...)
}

func (d *deployment) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, n := range d.nodes() {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became ready: %w", n.url, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// close drains every node (entry first, so the coordinator stops before
// its backends) and closes the journal.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, n := range d.nodes() {
		errs = append(errs, n.stop(ctx))
	}
	if d.st != nil {
		errs = append(errs, d.st.Close())
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
