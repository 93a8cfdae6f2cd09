package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spire/internal/wire"
)

// clientConns is the number of client connections (and load-driving
// goroutines) in every workload: the sandbox has two CPUs.
const clientConns = 2

// op is one closed-loop request as the client saw it.
type op struct {
	n      int64 // request number: the request ID and the input selector
	entry  int32 // request pool entry
	bin    bool  // SPB1 request and response
	ok     bool  // 200 and, where checked inline, the expected bytes
	hit    bool  // X-Spire-Cache: hit
	start  int64 // ns since the run's base
	end    int64
	status int
	sum    [sha256.Size]byte // response hash, for post-run checks
}

func (o op) latency() float64 { return float64(o.end-o.start) / 1e6 }

// closedLoop describes one closed-loop workload.
type closedLoop struct {
	url string
	// body renders request n into buf and reports its encoding and pool
	// entry.
	body func(n int64, buf []byte) ([]byte, bool, int)
	// check, when set, verifies a 200 response inline.
	check func(entry int, bin bool, resp []byte) bool
	// hash keeps each response's SHA-256 for checks after the run.
	hash bool
	// tr, when set, tags measured requests with their ID and records the
	// client's span of each.
	tr *tracer
	// replay, when set, is handed each successful measured request.
	replay func(g int, n int64, body []byte, bin bool)
}

// runClosedLoop drives clientConns connections, each sending its next
// request as soon as the previous response is read. Requests sent before
// measureFrom are warm-up and are not returned.
func (cl closedLoop) run(base time.Time, measureFrom, until time.Time) []op {
	var next atomic.Int64
	results := make([][]op, clientConns)
	var wg sync.WaitGroup
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			var reqBuf []byte
			var resp bytes.Buffer
			for {
				now := time.Now()
				if !now.Before(until) {
					return
				}
				measured := !now.Before(measureFrom)
				n := next.Add(1)
				body, bin, entry := cl.body(n, reqBuf)
				reqBuf = body
				o := op{n: n, entry: int32(entry), bin: bin}
				tag := cl.tr != nil && measured
				var spanStart int64
				if tag {
					spanStart = cl.tr.now()
				}
				o.start = int64(time.Since(base))
				o.status, o.hit = exchange(client, cl.url+"/v1/estimate", body, bin, n, tag, &resp)
				o.end = int64(time.Since(base))
				if tag {
					cl.tr.record(span{kind: kindClient, parent: -1, req: n, start: spanStart, end: cl.tr.now()})
				}
				if o.status == http.StatusOK {
					o.ok = cl.check == nil || cl.check(entry, bin, resp.Bytes())
					if cl.hash {
						o.sum = sha256.Sum256(resp.Bytes())
					}
				}
				if measured {
					results[g] = append(results[g], o)
					if o.ok && cl.replay != nil {
						cl.replay(g, n, body, bin)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var ops []op
	for _, r := range results {
		ops = append(ops, r...)
	}
	return ops
}

// exchange POSTs one estimate request and reads the whole response into
// resp. A transport failure is status 0.
func exchange(client *http.Client, url string, body []byte, bin bool, id int64, tag bool, resp *bytes.Buffer) (int, bool) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	if bin {
		req.Header.Set("Content-Type", wire.ContentTypeBin)
		req.Header.Set("Accept", wire.ContentTypeBin)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if tag {
		req.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	}
	res, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer res.Body.Close()
	resp.Reset()
	if _, err := resp.ReadFrom(res.Body); err != nil {
		return 0, false
	}
	return res.StatusCode, res.Header.Get("X-Spire-Cache") == "hit"
}

// window is one SSE window event as the subscriber received it.
type window struct {
	seq  uint64
	recv int64 // ns since the run's base
	size int
	sum  [sha256.Size]byte
}

// feed is one open-loop stream POST.
type feed struct {
	due    int64 // scheduled send time, ns since base
	sent   int64
	status int
}

// openLoop is stream-live's load: one feeder POSTing one interval of CSV
// per period on a fixed schedule, and one SSE subscriber.
type openLoop struct {
	url    string
	period time.Duration
	csv    func(k int, buf []byte) []byte
	tr     *tracer // as in closedLoop
}

// run subscribes, then feeds intervals due from base until until, then
// waits for the last closed window. feeds[k] carries interval k+1 and
// closes window k (1-based); windows are returned in arrival order.
func (ol openLoop) run(base time.Time, until time.Time) ([]feed, []window, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ol.url+"/v1/stream", nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := sub.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("subscribe: %w", err)
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		return nil, nil, fmt.Errorf("subscribe: status %d", res.StatusCode)
	}
	var (
		mu      sync.Mutex
		windows []window
		arrived = make(chan struct{}, 1)
		readErr = make(chan error, 1)
	)
	go func() {
		readErr <- readSSE(res.Body, base, func(w window) {
			mu.Lock()
			windows = append(windows, w)
			mu.Unlock()
			select {
			case arrived <- struct{}{}:
			default:
			}
		})
	}()

	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	feeder := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	var feeds []feed
	var body []byte
	var resp bytes.Buffer
	for k := 0; ; k++ {
		body = ol.csv(k, body[:0])
		due := base.Add(time.Duration(k) * ol.period)
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		var spanStart int64
		if ol.tr != nil {
			spanStart = ol.tr.now()
		}
		f := feed{due: int64(due.Sub(base)), sent: int64(time.Since(base))}
		f.status = postFeed(feeder, ol.url+"/v1/stream", body, int64(k), ol.tr != nil, &resp)
		if ol.tr != nil {
			ol.tr.record(span{kind: kindClient, parent: -1, req: int64(k), start: spanStart, end: ol.tr.now()})
		}
		feeds = append(feeds, f)
	}

	// The last fed interval stays open; every earlier one closes a window.
	want := uint64(len(feeds) - 1)
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		got := len(windows) > 0 && windows[len(windows)-1].seq >= want
		mu.Unlock()
		if got {
			break
		}
		select {
		case <-arrived:
		case err := <-readErr:
			res.Body.Close()
			return feeds, windows, fmt.Errorf("SSE stream ended early: %v", err)
		case <-deadline:
			cancel()
			res.Body.Close()
			<-readErr
			return feeds, windows, fmt.Errorf("timed out waiting for window %d", want)
		}
	}
	cancel()
	res.Body.Close()
	<-readErr
	mu.Lock()
	defer mu.Unlock()
	return feeds, windows, nil
}

func postFeed(client *http.Client, url string, body []byte, id int64, tag bool, resp *bytes.Buffer) int {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "text/csv")
	if tag {
		req.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	}
	res, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer res.Body.Close()
	resp.Reset()
	if _, err := resp.ReadFrom(res.Body); err != nil {
		return 0
	}
	return res.StatusCode
}

// readSSE parses `id:`/`data:` event frames until the body ends.
func readSSE(body io.Reader, base time.Time, emit func(window)) error {
	br := bufio.NewReaderSize(body, 64<<10)
	var (
		seq  uint64
		data []byte
	)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A data line longer than the buffer: accumulate it.
			data = append(data, bytes.TrimPrefix(line, []byte("data: "))...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				data = append(data, line...)
			}
			data = bytes.TrimSuffix(data, []byte("\n"))
			continue
		}
		if err != nil {
			return err
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			if data != nil {
				emit(window{seq: seq, recv: int64(time.Since(base)), size: len(data), sum: sha256.Sum256(data)})
			}
			seq, data = 0, nil
		case bytes.HasPrefix(line, []byte("id: ")):
			seq, _ = strconv.ParseUint(string(line[4:]), 10, 64)
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[6:]...)
		}
	}
}
