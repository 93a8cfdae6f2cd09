package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"spire/internal/cluster"
	"spire/internal/core"
	"spire/internal/serve"
)

// deployment is one set of in-process servers on loopback: one or more
// `spire serve` shards and, where the workload routes, a `spire route`
// router in front of them.
type deployment struct {
	shards  []*serve.Server
	router  *cluster.Router
	servers []*http.Server
	done    []chan struct{}
	stop    context.CancelFunc

	url     string // where clients send requests
	urls    []string
	modelID string
	ens     *core.Ensemble // the served model, as loaded from its bytes
}

// setupOptions selects the topology and the tracing hooks.
type setupOptions struct {
	shards int
	routed bool
	tracer *tracer // nil: handlers are mounted unwrapped
}

// deploy trains the model, starts the servers, uploads the model and
// waits until every /readyz answers 200. Its wall time is setup_s.
func deploy(train core.Dataset, opt setupOptions) (*deployment, error) {
	ens, _, err := core.TrainContext(context.Background(), train, core.TrainOptions{
		WorkUnit: "instructions",
		TimeUnit: "cycles",
	})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	ens.Hierarchy = &core.HierarchyModel{Levels: core.DefaultHierarchyLevels()}
	var blob bytes.Buffer
	if err := ens.Save(&blob); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{stop: cancel}
	for i := 0; i < opt.shards; i++ {
		// Room for a few seconds of windows per subscriber and in the
		// pending queue, so a feeder catching up after a host stall
		// delivers late windows rather than dropped ones.
		srv := serve.New(serve.Config{StreamSubBuffer: 1024, StreamMaxPending: 1024})
		d.shards = append(d.shards, srv)
		u, err := d.listen(opt.tracer.wrap(srv.Handler(), kindServeHandler))
		if err != nil {
			d.close()
			return nil, err
		}
		d.urls = append(d.urls, u)
	}
	d.url = d.urls[0]
	if opt.routed {
		cfg := cluster.Config{}
		for i, u := range d.urls {
			cfg.Shards = append(cfg.Shards, cluster.Shard{Name: fmt.Sprintf("shard-%d", i), URL: u})
		}
		rt, err := cluster.NewRouter(cfg, cluster.RouterOptions{Transport: opt.tracer.transport()})
		if err != nil {
			d.close()
			return nil, err
		}
		d.router = rt
		u, err := d.listen(opt.tracer.wrap(rt.Handler(), kindClusterHandler))
		if err != nil {
			d.close()
			return nil, err
		}
		d.url = u
	}

	// Upload through the front door: the router replicates to its shards.
	var info struct {
		ID string `json:"id"`
	}
	if err := postJSON(d.url+"/v1/models", blob.Bytes(), &info); err != nil {
		d.close()
		return nil, fmt.Errorf("model upload: %w", err)
	}
	if d.router != nil {
		// Health probing starts once the shards hold the model; a probe
		// before the upload would mark them unready until the next tick.
		d.router.Run(ctx)
	}
	for _, u := range append([]string{d.url}, d.urls...) {
		if err := waitReady(u); err != nil {
			d.close()
			return nil, err
		}
	}
	// The reference model is the uploaded bytes loaded the way the
	// registry loads them.
	d.ens, err = core.LoadEnsemble(bytes.NewReader(blob.Bytes()))
	if err == nil {
		d.modelID, err = d.ens.Fingerprint()
	}
	if err == nil && d.modelID != info.ID {
		err = fmt.Errorf("model id %s, upload answered %s", d.modelID, info.ID)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// listen serves h on a fresh loopback listener with the timeouts
// `spire serve` uses.
func (d *deployment) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	d.servers = append(d.servers, hs)
	d.done = append(d.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops the router loops, every stream hub and every listener, and
// waits for each serving goroutine to exit.
func (d *deployment) close() {
	d.stop()
	if d.router != nil {
		d.router.Close()
	}
	for _, s := range d.shards {
		s.Close()
	}
	for i, hs := range d.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		cancel()
		<-d.done[i]
	}
}

var setupClient = &http.Client{Timeout: 10 * time.Second}

func postJSON(url string, body []byte, out any) error {
	resp, err := setupClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := setupClient.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = errors.New("not ready")
			}
			return fmt.Errorf("%s/readyz: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
