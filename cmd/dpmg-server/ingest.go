package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpmg"
	"dpmg/internal/encoding"
	"dpmg/internal/framing"
	"dpmg/internal/stream"
)

// Streaming binary ingest datapath (-ingest-addr).
//
// PERFORMANCE.md records that the .../batch cost is dominated by fixed
// net/http and per-request plumbing (~188 µs per 4096-item batch), not
// sketch work (5.6 ns/item). This listener removes that tax for the hot
// edge → aggregator path: a persistent TCP connection carries
// length-prefixed item frames (internal/framing), a connection binds to a
// stream once — the *dpmg.Stream handle is resolved at bind time, so data
// frames skip the registry lookup and all per-request allocation — and
// each frame decodes through the same validating encoding.AppendItems
// into the same capped pool the HTTP path uses, landing directly on
// Stream.UpdateBatch. Everything the manager enforces on the HTTP path
// still applies per frame: universe validation during decode, the QoS
// token bucket, the lifecycle interlock (evict / fault-in / delete), and
// all-or-nothing refusals — reported on a per-frame binary ack instead of
// an HTTP status.
//
// Error classification mirrors the HTTP endpoint's status classes: bad
// items ack AckBadItem (400), QoS refusals AckRateLimited (429),
// offload-store fault-in failures AckUnavailable (503, never a client
// error), deleted streams AckStreamGone. A malformed frame acks
// AckBadFrame and closes the connection — framing can no longer be
// trusted.

// ingestAckTimeout bounds one ack write; a client that stops reading acks
// cannot wedge a handler goroutine forever.
const ingestAckTimeout = 30 * time.Second

// ingestServer owns the streaming ingest listener: the accept loop, the
// per-connection handler goroutines, the connection table /metrics reads,
// and the graceful drain that runs beside the HTTP server's shutdown.
type ingestServer struct {
	s    *server
	ln   net.Listener
	idle time.Duration

	wg       sync.WaitGroup
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[uint64]*ingestConn
	nextID uint64

	// Process-lifetime totals; they survive connection close, unlike the
	// per-connection rows.
	accepted atomic.Int64
	frames   atomic.Int64
	items    atomic.Int64
	refusals atomic.Int64
}

// ingestConn is one live connection's state and observability counters.
type ingestConn struct {
	id   uint64
	conn net.Conn
	addr string

	// streamName is the bound stream's name for the /metrics label (""
	// while unbound); atomic because the metrics scrape races binds.
	streamName atomic.Value // string

	frames   atomic.Int64
	items    atomic.Int64
	refusals atomic.Int64
}

// newIngestServer wires a streaming ingest listener to a server. idle
// bounds how long a connection may sit between frames before it is
// reaped. Call serve (in a goroutine) to start accepting.
func newIngestServer(s *server, ln net.Listener, idle time.Duration) *ingestServer {
	is := &ingestServer{s: s, ln: ln, idle: idle, conns: make(map[uint64]*ingestConn)}
	s.ingest.Store(is)
	return is
}

// serve runs the accept loop until the listener closes (Shutdown).
func (is *ingestServer) serve() {
	for {
		conn, err := is.ln.Accept()
		if err != nil {
			if is.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("ingest accept: %v", err)
			continue
		}
		is.accepted.Add(1)
		ic := &ingestConn{conn: conn, addr: conn.RemoteAddr().String()}
		ic.streamName.Store("")
		is.mu.Lock()
		is.nextID++
		ic.id = is.nextID
		is.conns[ic.id] = ic
		is.mu.Unlock()
		is.wg.Add(1)
		go func() {
			defer is.wg.Done()
			defer is.drop(ic)
			is.handle(ic)
		}()
	}
}

// drop closes and unregisters a connection.
func (is *ingestServer) drop(ic *ingestConn) {
	ic.conn.Close()
	is.mu.Lock()
	delete(is.conns, ic.id)
	is.mu.Unlock()
}

// Shutdown drains the listener beside the HTTP server's own shutdown:
// stop accepting, let in-flight frames finish (each handler exits after
// acking its current frame once draining is set), and force-close
// whatever is still open — including connections idly blocked between
// frames — when ctx expires.
func (is *ingestServer) Shutdown(ctx context.Context) error {
	is.draining.Store(true)
	is.ln.Close()
	done := make(chan struct{})
	go func() {
		is.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		is.mu.Lock()
		for _, ic := range is.conns {
			ic.conn.Close()
		}
		is.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// connCount returns the number of open connections.
func (is *ingestServer) connCount() int {
	is.mu.Lock()
	defer is.mu.Unlock()
	return len(is.conns)
}

// connSample is one connection's metrics reads, gathered under the table
// lock so the /metrics writer needs no further synchronization.
type connSample struct {
	id         uint64
	addr       string
	streamName string
	frames     int64
	items      int64
	refusals   int64
}

// connSamples snapshots the per-connection counters for /metrics.
func (is *ingestServer) connSamples() []connSample {
	is.mu.Lock()
	defer is.mu.Unlock()
	out := make([]connSample, 0, len(is.conns))
	for _, ic := range is.conns {
		out = append(out, connSample{
			id:         ic.id,
			addr:       ic.addr,
			streamName: ic.streamName.Load().(string),
			frames:     ic.frames.Load(),
			items:      ic.items.Load(),
			refusals:   ic.refusals.Load(),
		})
	}
	return out
}

// handle runs one connection: preamble, then a frame-ack loop. The bound
// stream handle is sticky — resolved once per bind frame, reused by every
// data frame after it.
func (is *ingestServer) handle(ic *ingestConn) {
	br := bufio.NewReaderSize(ic.conn, 1<<16)
	bw := bufio.NewWriterSize(ic.conn, 1<<12)
	ic.conn.SetReadDeadline(time.Now().Add(is.idle)) //nolint:errcheck // net.Conn deadlines
	if err := framing.ReadPreamble(br); err != nil {
		// No trusted framing to ack over; close silently (port scanners,
		// stray HTTP clients).
		return
	}

	// Sticky binding state: the resolved stream handle and its universe
	// bound, cached so data frames pay neither registry lookup nor config
	// copy.
	var bound *dpmg.Stream
	var universe uint64

	bufp := batchBufPool.Get().(*[]stream.Item)
	defer putBatchBuf(bufp)
	var ackBuf []byte

	for {
		ic.conn.SetReadDeadline(time.Now().Add(is.idle)) //nolint:errcheck // net.Conn deadlines
		h, err := framing.ReadHeader(br)
		if err != nil {
			// EOF, idle timeout, or a forced drain close: nothing to ack.
			return
		}
		ack := framing.Ack{Seq: h.Seq}
		closeAfterAck := false

		switch {
		case is.draining.Load():
			// Graceful drain: refuse the frame (its payload is consumed to
			// keep the refusal well-framed) and hang up so the client
			// reconnects elsewhere. Frames acked before the drain began
			// were fully applied.
			if h.Len > 8*framing.MaxDataItems {
				return
			}
			if _, err := io.CopyN(io.Discard, br, int64(h.Len)); err != nil {
				return
			}
			ack.Code = framing.AckShuttingDown
			ack.Msg = "server draining"
			closeAfterAck = true

		case h.Type == framing.TypeBind:
			if h.Len > framing.MaxNameLen {
				ack.Code = framing.AckBadFrame
				ack.Msg = "stream name too long"
				closeAfterAck = true
				break
			}
			nameBuf := make([]byte, h.Len)
			if _, err := io.ReadFull(br, nameBuf); err != nil {
				return
			}
			name := string(nameBuf)
			st, ok := is.s.mgr.Stream(name)
			if !ok {
				ack.Code = framing.AckUnknownStream
				ack.Msg = "unknown stream " + name
				break
			}
			bound, universe = st, st.Config().Universe
			ic.streamName.Store(name)
			ack.Code = framing.AckOK
			ack.Info = uint64(st.Ingested())

		case h.Type == framing.TypeData:
			if h.Len > 8*framing.MaxDataItems {
				ack.Code = framing.AckBadFrame
				ack.Msg = "data frame too large"
				closeAfterAck = true
				break
			}
			lr := io.LimitedReader{R: br, N: int64(h.Len)}
			if bound == nil {
				if _, err := io.Copy(io.Discard, &lr); err != nil {
					return
				}
				ack.Code = framing.AckNotBound
				ack.Msg = "data frame before bind"
				break
			}
			items, derr := encoding.AppendItems((*bufp)[:0], &lr, framing.MaxDataItems, universe)
			*bufp = items // keep the grown buffer even when the decode failed
			if derr != nil {
				// The decode aborted mid-payload; drain the remainder so
				// the refusal leaves the connection well-framed.
				if _, err := io.Copy(io.Discard, &lr); err != nil {
					return
				}
				ack.Code = framing.AckBadItem
				ack.Msg = derr.Error()
				break
			}
			uerr := bound.UpdateBatch(items)
			switch {
			case uerr == nil:
				// Deletion cannot interleave with an in-flight UpdateBatch
				// (DeleteStream try-locks the lifecycle write side), so a
				// tombstone observed here means the delete ran before the
				// batch — the items landed in orphaned state — or just
				// after it, in which case the whole stream's data is gone
				// anyway. Either way the binding is dead: report it and
				// make the client re-bind.
				if bound.Deleted() {
					bound = nil
					ic.streamName.Store("")
					ack.Code = framing.AckStreamGone
					ack.Msg = "stream deleted"
					break
				}
				ack.Code = framing.AckOK
				ack.Info = uint64(bound.Ingested())
				ic.items.Add(int64(len(items)))
				is.items.Add(int64(len(items)))
			case errors.Is(uerr, dpmg.ErrRateLimited):
				ack.Code = framing.AckRateLimited
				ack.Msg = uerr.Error()
			case errors.Is(uerr, dpmg.ErrFaultIn):
				// Server-side offload-store trouble — the 503 analogue;
				// nothing was ingested and the client should retry.
				ack.Code = framing.AckUnavailable
				ack.Msg = uerr.Error()
			default:
				ack.Code = framing.AckBadItem
				ack.Msg = uerr.Error()
			}

		case h.Type == framing.TypeClose:
			ack.Code = framing.AckOK
			closeAfterAck = true

		default:
			ack.Code = framing.AckBadFrame
			ack.Msg = "unknown frame type"
			closeAfterAck = true
		}

		ic.frames.Add(1)
		is.frames.Add(1)
		if ack.Code != framing.AckOK && ack.Code != framing.AckShuttingDown {
			ic.refusals.Add(1)
			is.refusals.Add(1)
		}
		ic.conn.SetWriteDeadline(time.Now().Add(ingestAckTimeout)) //nolint:errcheck // net.Conn deadlines
		ackBuf = framing.AppendAck(ackBuf[:0], ack)
		if _, err := bw.Write(ackBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if closeAfterAck {
			return
		}
	}
}
