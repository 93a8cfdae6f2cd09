package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime/metrics"
	"testing"
	"time"

	"spire/internal/cluster"
	"spire/internal/serve"
	"spire/internal/testutil"
)

// postShort sends an estimate request whose body stops short of its
// Content-Length, then half-closes the connection, and returns the
// answer.
func postShort(t *testing.T, base string) (int, string) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	body := `{"samples":[{"metric":"m1","t":1,`
	fmt.Fprintf(conn, "POST /v1/estimate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n%s", u.Host, len(body)+64, body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestRouterTruncatedBody: a body cut short of its Content-Length is a
// read error, not an oversized body. The router answers it exactly as a
// shard does, and books it as malformed rather than too large.
func TestRouterTruncatedBody(t *testing.T) {
	_, model := testutil.TrainModel(t, 1)
	single := startSingle(t, serve.Config{}, model)
	tc := startCluster(t, clusterOpts{shards: 2})
	tc.waitConverged(t, tc.pushModel(t, model), 5*time.Second)

	code, body := postShort(t, single.URL)
	if code != http.StatusBadRequest {
		t.Fatalf("shard answered a truncated body %d %s, want 400", code, body)
	}
	rcode, rbody := postShort(t, tc.url)
	if rcode != code || rbody != body {
		t.Errorf("router answered %d %s, shard answered %d %s", rcode, rbody, code, body)
	}
	exposition := testutil.ScrapeMetrics(t, tc.url)
	if n := testutil.SumMetric(t, exposition, "spire_route_rejected_total", `reason="malformed_body"`); n != 1 {
		t.Errorf("malformed_body rejections = %v, want 1", n)
	}
	if n := testutil.SumMetric(t, exposition, "spire_route_rejected_total", `reason="body_too_large"`); n != 0 {
		t.Errorf("body_too_large rejections = %v, want 0", n)
	}
	testutil.AssertRouteBooksBalance(t, exposition, "/v1/estimate")
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stalledAlloc sends the headers of an estimate request declaring a body
// of declared bytes, then the first few of them, and stalls. It returns
// the heap the process allocated while the server waited for the rest.
func stalledAlloc(t *testing.T, base string, declared int) uint64 {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	before := allocatedBytes()
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/estimate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n{\"samples\":[", u.Host, declared)
	time.Sleep(200 * time.Millisecond)
	return allocatedBytes() - before
}

// TestStalledBodyHeap: a client that declares a body at the cap, sends a
// few bytes and stalls must not make the shard or the router allocate a
// buffer for the whole declared length; bytes are buffered as they
// arrive. Best of three, so a stray allocation elsewhere in the process
// cannot fail it.
func TestStalledBodyHeap(t *testing.T) {
	const limit = 8 << 20
	_, model := testutil.TrainModel(t, 1)
	single := startSingle(t, serve.Config{MaxBodyBytes: limit}, model)
	tc := startCluster(t, clusterOpts{shards: 2, tune: func(c *cluster.Config) { c.MaxBodyBytes = limit }})
	tc.waitConverged(t, tc.pushModel(t, model), 5*time.Second)

	for _, target := range []struct{ name, url string }{{"shard", single.URL}, {"router", tc.url}} {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			best = min(best, stalledAlloc(t, target.url, limit))
		}
		t.Logf("%s: %d bytes allocated while stalled on a %d-byte declared body", target.name, best, limit)
		if best > limit/8 {
			t.Errorf("%s allocated %d bytes while stalled on a %d-byte declared body, want at most %d",
				target.name, best, limit, limit/8)
		}
	}
}
