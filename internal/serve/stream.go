package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"spire/internal/ingest"
	"spire/internal/wire"
)

// StreamFeedResponse is the POST /v1/stream response body.
type StreamFeedResponse struct {
	// Bytes is how much of the request body was fed into the stream.
	Bytes int64 `json:"bytes"`
	// Stats is the hub's cumulative ingestion accounting (all feeders).
	Stats ingest.Stats `json:"stats"`
	// Diags are parser diagnostics newly retained since the last feed
	// that drained them.
	Diags []ingest.Diag `json:"diags,omitempty"`
}

// handleStreamPost pipes the request body into the shared stream hub.
// Bodies may end mid-line or mid-interval: the resumable parser carries
// the fragment over to the next POST, so a feeder can deliver one
// interval per request or stream an endless body — both advance the same
// window. The route is registered without the body-size cap: memory
// stays bounded by the chunked reads here and the hub's drop-oldest
// queue, so the endless case really works.
func (s *Server) handleStreamPost(w http.ResponseWriter, r *http.Request) {
	// Feeders are metered per tenant like any other caller; the
	// concurrency gate is estimation-only, so feeds never wait on it.
	if err := s.adm.Quota(tenantOf(r)); err != nil {
		writeRejected(w, err)
		return
	}
	if wire.IsBinMedia(r.Header.Get("Content-Type")) {
		s.handleStreamPostBin(w, r)
		return
	}
	buf := make([]byte, 32<<10)
	var fed int64
	for {
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			fed += int64(n)
			if err := s.hub.Feed(buf[:n]); err != nil {
				writeErr(w, http.StatusServiceUnavailable, "stream closed: %v", err)
				return
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, "reading body: %v", rerr)
			return
		}
	}
	writeJSON(w, http.StatusOK, StreamFeedResponse{
		Bytes: fed,
		Stats: s.hub.Stats(),
		Diags: s.hub.Diags(),
	})
}

// handleStreamPostBin feeds SPB1 MsgSampleBatch frames into the hub:
// each frame is one pre-parsed interval, decoded as soon as its bytes
// are complete (frames may split across reads and requests may carry
// many frames). A malformed or truncated frame fails the request with a
// decode error — never a partial-success 200 — though intervals decoded
// before the bad frame were already fed, exactly as the CSV path feeds
// whole lines preceding a bad one. Buffering is bounded by one frame
// (wire.MaxPayload), so the endless-body contract of the route holds.
func (s *Server) handleStreamPostBin(w http.ResponseWriter, r *http.Request) {
	var (
		acc []byte
		tmp = make([]byte, 32<<10)
		fed int64
	)
	for {
		n, rerr := r.Body.Read(tmp)
		if n > 0 {
			fed += int64(n)
			acc = append(acc, tmp[:n]...)
			consumed := 0
			for {
				size, err := wire.FrameSize(acc[consumed:])
				if err != nil {
					writeErr(w, http.StatusBadRequest, "bad stream frame: %v", err)
					return
				}
				if size == 0 || len(acc)-consumed < size {
					break
				}
				sb, err := wire.DecodeSampleBatch(acc[consumed : consumed+size : consumed+size])
				if err != nil {
					writeErr(w, http.StatusBadRequest, "bad stream frame: %v", err)
					return
				}
				consumed += size
				iv := ingest.Interval{TS: sb.TS, Window: sb.Window, Samples: sb.Samples, Sched: sb.Sched}
				if err := s.hub.FeedInterval(iv); err != nil {
					writeErr(w, http.StatusServiceUnavailable, "stream closed: %v", err)
					return
				}
			}
			if consumed > 0 {
				acc = append(acc[:0], acc[consumed:]...)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, "reading body: %v", rerr)
			return
		}
	}
	if len(acc) != 0 {
		writeErr(w, http.StatusBadRequest, "truncated frame at end of feed (%d buffered bytes)", len(acc))
		return
	}
	writeJSON(w, http.StatusOK, StreamFeedResponse{
		Bytes: fed,
		Stats: s.hub.Stats(),
		Diags: s.hub.Diags(),
	})
}

// handleStreamGet subscribes the client to the live window stream as
// Server-Sent Events. Each completed window is one `event: window` frame
// whose data is a stream.Result; `id:` carries the window sequence
// number, so a client that reconnects can detect both its own losses
// (Last-Event-ID vs first received id) and backpressure drops mid-stream
// (gaps between consecutive ids). `?top=N` truncates each ranking for
// this subscriber only.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	if err := s.adm.Quota(tenantOf(r)); err != nil {
		writeRejected(w, err)
		return
	}
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
		top = n
	}
	sub := s.hub.Subscribe()
	defer sub.Close()

	// Exempt this long-lived response from the server-wide WriteTimeout:
	// an SSE feed is supposed to outlive any per-response bound. The
	// instrumentation wrapper exposes the real writer via Unwrap; if the
	// transport can't do per-request deadlines (e.g. some test harness),
	// the feed just stays subject to the global timeout.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.hub.Done():
			return
		case res, ok := <-sub.C():
			if !ok {
				return
			}
			raw, err := json.Marshal(res.Truncate(top))
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: window\ndata: %s\n\n", res.Seq, raw); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
