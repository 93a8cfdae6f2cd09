package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// This file extends the dataset corruptor to the transport: a
// deterministic chaos net.Listener / http.RoundTripper pair that breaks
// connections the way real networks do — stalled reads, slow-loris
// writes, mid-body connection resets, truncated response bodies and SSE
// frames. Like the dataset faults, every decision comes from one seeded
// PRNG, so a given (seed, fault-rate) configuration draws the same fault
// plan sequence run after run; what interleaving the goroutine scheduler
// lays those plans over is the only nondeterminism left, which is
// exactly the point of a chaos soak under -race.

// Fault kinds counted by Chaos.Counts.
const (
	FaultStall    = "stall"    // a read pauses for Stall
	FaultReset    = "reset"    // the connection dies mid-exchange
	FaultSlowrite = "slowrite" // writes trickle out in tiny delayed chunks
	FaultTruncate = "truncate" // the body/frame is cut short
	faultNone     = "none"     // plan drew no fault (not reported)
)

// ChaosConfig tunes the transport corruptor. Rates are per-exchange
// Bernoulli probabilities in [0,1]; a zero config injects nothing.
type ChaosConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// StallRate delays a read by Stall before it proceeds.
	StallRate float64
	// Stall is the injected read delay. Default 2ms.
	Stall time.Duration
	// ResetRate kills the exchange with a connection-reset error.
	ResetRate float64
	// SlowriteRate makes writes trickle in ChunkSize pieces separated
	// by ChunkDelay — the slow-loris shape.
	SlowriteRate float64
	// ChunkSize is the slow-loris write granularity. Default 64 bytes.
	ChunkSize int
	// ChunkDelay separates slow-loris chunks. Default 200µs.
	ChunkDelay time.Duration
	// TruncateRate cuts a body short after TruncateAfter bytes.
	TruncateRate float64
	// TruncateAfter is how many bytes survive a truncation. Default 64.
	TruncateAfter int
}

func (c *ChaosConfig) setDefaults() {
	if c.Stall == 0 {
		c.Stall = 2 * time.Millisecond
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64
	}
	if c.ChunkDelay == 0 {
		c.ChunkDelay = 200 * time.Microsecond
	}
	if c.TruncateAfter <= 0 {
		c.TruncateAfter = 64
	}
}

// Chaos hands out chaotic transports and listeners driven by one seeded
// PRNG. Safe for concurrent use.
type Chaos struct {
	cfg ChaosConfig

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int
}

// NewChaos builds a Chaos from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	cfg.setDefaults()
	return &Chaos{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[string]int),
	}
}

// Counts reports how many faults of each kind have been injected.
func (c *Chaos) Counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Total reports the total number of injected faults.
func (c *Chaos) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// plan draws one exchange's fault, at most one kind per exchange so
// error accounting stays attributable.
func (c *Chaos) plan() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rng.Float64()
	kind := faultNone
	switch {
	case r < c.cfg.StallRate:
		kind = FaultStall
	case r < c.cfg.StallRate+c.cfg.ResetRate:
		kind = FaultReset
	case r < c.cfg.StallRate+c.cfg.ResetRate+c.cfg.SlowriteRate:
		kind = FaultSlowrite
	case r < c.cfg.StallRate+c.cfg.ResetRate+c.cfg.SlowriteRate+c.cfg.TruncateRate:
		kind = FaultTruncate
	}
	if kind != faultNone {
		c.counts[kind]++
	}
	return kind
}

// errReset is the synthetic mid-exchange connection death.
var errReset = &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}

// Transport wraps base (nil selects http.DefaultTransport) with
// client-side chaos. Each request draws one fault: a stall before the
// exchange, a connection reset instead of a response, or a response body
// that is truncated mid-stream (for SSE responses this is a truncated
// frame). Request errors are reported as connection resets, which
// retry-classifying clients must treat as maybe-delivered.
func (c *Chaos) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &chaosTransport{chaos: c, base: base}
}

type chaosTransport struct {
	chaos *Chaos
	base  http.RoundTripper
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.chaos.plan() {
	case FaultStall:
		select {
		case <-time.After(t.chaos.cfg.Stall):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	case FaultReset:
		// Die before the exchange: the caller cannot know whether the
		// request reached the server.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errReset
	case FaultSlowrite:
		// Client-side slow-loris: trickle the request body.
		if req.Body != nil {
			req.Body = &slowReader{rc: req.Body, chunk: t.chaos.cfg.ChunkSize, delay: t.chaos.cfg.ChunkDelay}
		}
	case FaultTruncate:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{rc: resp.Body, remaining: t.chaos.cfg.TruncateAfter}
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// slowReader trickles reads chunk bytes at a time with a delay, turning
// the wrapped body into a slow-loris upload.
type slowReader struct {
	rc    io.ReadCloser
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	time.Sleep(s.delay)
	return s.rc.Read(p)
}

func (s *slowReader) Close() error { return s.rc.Close() }

// truncatedBody yields at most remaining bytes, then fails the stream
// the way a torn connection does.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The body really ended inside the budget: no fault after all.
		return n, io.EOF
	}
	if b.remaining <= 0 {
		b.rc.Close()
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// Listener wraps base with server-side chaos: accepted connections draw
// per-connection fault plans — stalled first reads, slow-loris response
// writes, and hard resets after a byte budget (mid-body from the peer's
// point of view).
func (c *Chaos) Listener(base net.Listener) net.Listener {
	return &chaosListener{chaos: c, Listener: base}
}

type chaosListener struct {
	net.Listener
	chaos *Chaos
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &chaosConn{Conn: conn, chaos: l.chaos, kind: l.chaos.plan()}
	if cc.kind == FaultReset || cc.kind == FaultTruncate {
		// Budget before the connection dies; truncate behaves like a
		// reset that waited for part of the response.
		cc.resetAfter = l.chaos.cfg.TruncateAfter
		if cc.kind == FaultReset {
			cc.resetAfter = 0
		}
	}
	return cc, nil
}

// chaosConn applies one connection's fault plan.
type chaosConn struct {
	net.Conn
	chaos *Chaos
	kind  string

	mu         sync.Mutex
	stalled    bool
	written    int
	resetAfter int
	dead       bool
}

// kill hard-closes the connection (RST when the stack allows it, so the
// peer sees ECONNRESET rather than a clean FIN).
func (c *chaosConn) kill() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

func (c *chaosConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, errReset
	}
	stallNow := c.kind == FaultStall && !c.stalled
	c.stalled = true
	c.mu.Unlock()
	if stallNow {
		time.Sleep(c.chaos.cfg.Stall)
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, errReset
	}
	kind := c.kind
	budget := c.resetAfter - c.written
	c.mu.Unlock()

	switch kind {
	case FaultReset, FaultTruncate:
		if budget <= 0 {
			c.mu.Lock()
			c.dead = true
			c.mu.Unlock()
			c.kill()
			return 0, errReset
		}
		n := len(p)
		if n > budget {
			n = budget
		}
		n, err := c.Conn.Write(p[:n])
		c.mu.Lock()
		c.written += n
		c.mu.Unlock()
		if err != nil {
			return n, err
		}
		if n < len(p) {
			c.mu.Lock()
			c.dead = true
			c.mu.Unlock()
			c.kill()
			return n, errReset
		}
		return n, nil
	case FaultSlowrite:
		total := 0
		for len(p) > 0 {
			chunk := len(p)
			if chunk > c.chaos.cfg.ChunkSize {
				chunk = c.chaos.cfg.ChunkSize
			}
			time.Sleep(c.chaos.cfg.ChunkDelay)
			n, err := c.Conn.Write(p[:chunk])
			total += n
			if err != nil {
				return total, err
			}
			p = p[chunk:]
		}
		return total, nil
	}
	return c.Conn.Write(p)
}

// String describes the chaos configuration (test logs).
func (c *Chaos) String() string {
	return fmt.Sprintf("chaos(seed=%d stall=%.2f reset=%.2f slowrite=%.2f truncate=%.2f)",
		c.cfg.Seed, c.cfg.StallRate, c.cfg.ResetRate, c.cfg.SlowriteRate, c.cfg.TruncateRate)
}
