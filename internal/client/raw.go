package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// This file is the relay-grade API the cluster router (internal/cluster)
// builds on: unlike Estimate/Ingest, which decode the response and map
// non-200s to errors, DoRaw hands back whatever definitive answer the
// upstream produced — status, headers and exact body bytes — so a
// relaying caller can forward it unchanged (byte-parity is the cluster
// tier's core invariant). Only transport-level failures, where no
// definitive response exists, are retried or surfaced as errors.

// RawRequest describes one relayable exchange.
type RawRequest struct {
	// Method defaults to POST.
	Method string
	// Path is the URL path, e.g. "/v1/estimate".
	Path string
	// Query is the raw query string, without the leading '?'.
	Query string
	// Body is the exact request body; nil sends none.
	Body []byte
	// ContentType / Accept are set verbatim when non-empty.
	ContentType string
	Accept      string
	// Tenant overrides the client's configured tenant for this call
	// (routers forward each caller's own X-Spire-Tenant).
	Tenant string
	// Idempotent marks the exchange safe to retry after a transport
	// failure. Non-idempotent exchanges are single-shot, like
	// FeedStream.
	Idempotent bool
}

// RawResponse is the definitive upstream answer. Body is the exact byte
// sequence received; a relaying caller forwards it unmodified.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
	// RetryAfter is the parsed Retry-After header, 0 if absent.
	RetryAfter time.Duration
}

// DoRaw runs one exchange for a relaying caller. Every received HTTP
// response — 200 or 429 alike — is definitive and returned with nil
// error; classification (relay, reject, fail over to another shard) is
// the caller's job. Transport failures are retried with the client's
// full-jitter backoff while req.Idempotent and attempts remain; when no
// definitive response can be obtained the last transport error is
// returned.
func (c *Client) DoRaw(ctx context.Context, req RawRequest) (*RawResponse, error) {
	method := req.Method
	if method == "" {
		method = http.MethodPost
	}
	url := c.cfg.BaseURL + req.Path
	if req.Query != "" {
		url += "?" + req.Query
	}
	var getBody func() (io.Reader, error)
	if req.Body != nil {
		getBody = BytesBody(req.Body)
	}
	for attempt := 1; ; attempt++ {
		res := c.attempt(ctx, method, url, getBody, req.ContentType, req.Accept, req.Tenant)
		if res.err == nil {
			return &RawResponse{Status: res.status, Header: res.header, Body: res.body, RetryAfter: res.retryAfter}, nil
		}
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case !req.Idempotent:
			return nil, fmt.Errorf("client: %s %s (not retried: non-idempotent): %w", method, req.Path, res.err)
		case attempt >= c.cfg.MaxAttempts:
			return nil, fmt.Errorf("client: %s %s: gave up after %d attempts: %w", method, req.Path, attempt, res.err)
		}
		delay := c.backoff(attempt, 0)
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(RetryInfo{Attempt: attempt, Delay: delay, Err: res.err})
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}
