package framing

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"dpmg/internal/stream"
)

// Client speaks the streaming-ingest protocol from the edge side: it
// writes the preamble on connect, binds to a stream once, and then ships
// raw item frames. Two usage modes are supported:
//
//   - Synchronous: Send writes one data frame and waits for its ack — the
//     simplest way to get HTTP-like request/response semantics with none
//     of the per-request HTTP tax.
//   - Pipelined: Push writes frames without waiting, Flush pushes them to
//     the socket, and ReadAck drains acknowledgments (in frame order) from
//     a separate goroutine. This is how an edge saturates the link: the
//     per-frame cost is one buffered write, and acks overlap with the next
//     frames in flight.
//
// A Client is not safe for concurrent use by multiple goroutines, with one
// deliberate exception: one goroutine may call Push/Flush while another
// calls ReadAck (the write and read halves share no state beyond the
// socket).
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint32
	// scratch is the reusable frame-encoding buffer; it grows to the
	// largest pushed frame and is reused for every subsequent one. ackBuf
	// is its read-side twin — the reusable ack-decoding buffer — touched
	// only by the ack-reading goroutine, so the Push/Flush ∥ ReadAck
	// concurrency exception holds.
	scratch []byte
	ackBuf  []byte
}

// DialTimeout connects to a dpmg-server streaming ingest listener
// (-ingest-addr) and writes the protocol preamble, under a connect
// timeout: a peer that is down or unreachable fails within the deadline
// instead of holding the caller for the kernel's (minutes-long) connect
// timeout. A non-positive timeout means no limit.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return DialContext(ctx, addr)
}

// DialContext is DialTimeout under a caller-supplied context:
// cancellation or a deadline aborts the connect (not the established
// connection).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (TCP, Unix socket, or an
// in-memory pipe in tests), writing the protocol preamble.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 1<<16),
		br:   bufio.NewReaderSize(conn, 1<<16),
	}
	if err := WritePreamble(c.bw); err != nil {
		return nil, err
	}
	return c, nil
}

// AckError is a non-OK acknowledgment surfaced as an error by the
// synchronous helpers (Bind, Send, Close).
type AckError struct {
	// Ack is the refusing acknowledgment.
	Ack Ack
}

// Error formats the refusal.
func (e *AckError) Error() string {
	if e.Ack.Msg != "" {
		return fmt.Sprintf("framing: server refused frame %d: %s: %s", e.Ack.Seq, e.Ack.Code, e.Ack.Msg)
	}
	return fmt.Sprintf("framing: server refused frame %d: %s", e.Ack.Seq, e.Ack.Code)
}

// Bind binds the connection to the named stream and waits for the ack,
// returning an *AckError on refusal. Binding again re-routes subsequent
// data frames to the newly named stream.
func (c *Client) Bind(streamName string) error {
	if len(streamName) > MaxNameLen {
		return fmt.Errorf("framing: stream name length %d exceeds %d", len(streamName), MaxNameLen)
	}
	c.seq++
	c.scratch = AppendHeader(c.scratch[:0], Header{Type: TypeBind, Seq: c.seq, Len: uint32(len(streamName))})
	c.scratch = append(c.scratch, streamName...)
	if _, err := c.bw.Write(c.scratch); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// Push writes one data frame without waiting for its ack, returning the
// frame's sequence number. Call Flush before blocking on acks.
func (c *Client) Push(items []stream.Item) (uint32, error) {
	if len(items) > MaxDataItems {
		return 0, fmt.Errorf("framing: data frame of %d items exceeds %d", len(items), MaxDataItems)
	}
	c.seq++
	c.scratch = AppendHeader(c.scratch[:0], Header{Type: TypeData, Seq: c.seq, Len: uint32(8 * len(items))})
	for _, x := range items {
		c.scratch = binary.LittleEndian.AppendUint64(c.scratch, uint64(x))
	}
	if _, err := c.bw.Write(c.scratch); err != nil {
		return 0, err
	}
	return c.seq, nil
}

// Flush forces buffered frames onto the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// ReadAck reads the next acknowledgment in frame order. It does not
// translate refusals into errors — pipelined callers classify the code
// themselves.
func (c *Client) ReadAck() (Ack, error) { return c.readAck() }

// readAck decodes the next ack into the client's reusable buffer, so a
// steady ack-draining loop allocates only for refusal messages.
func (c *Client) readAck() (Ack, error) {
	a, buf, err := readAckBuf(c.br, c.ackBuf)
	c.ackBuf = buf
	return a, err
}

// Send writes one data frame and waits for its ack, returning an
// *AckError on refusal. All-or-nothing: on any error the frame's items
// were not ingested.
func (c *Client) Send(items []stream.Item) error {
	if _, err := c.Push(items); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// expectOK reads the next ack, requiring it to match the last written
// sequence number with AckOK.
func (c *Client) expectOK() error {
	ack, err := c.readAck()
	if err != nil {
		return err
	}
	if ack.Seq != c.seq {
		return fmt.Errorf("framing: ack for frame %d, want %d (pipelined acks must be drained with ReadAck)", ack.Seq, c.seq)
	}
	if ack.Code != AckOK {
		return &AckError{Ack: ack}
	}
	return nil
}

// Exchange writes one frame of the given type and payload, flushes, and
// waits for its in-order ack, returning the ack without classifying
// refusals — callers that treat some non-OK codes as success (the
// aggregation tier's AckDuplicate) decide themselves. It is the generic
// synchronous round trip the typed helpers (Bind, Send) are special cases
// of; protocol extensions (internal/cluster) build on it.
func (c *Client) Exchange(t Type, payload []byte) (Ack, error) {
	c.seq++
	c.scratch = AppendHeader(c.scratch[:0], Header{Type: t, Seq: c.seq, Len: uint32(len(payload))})
	c.scratch = append(c.scratch, payload...)
	if _, err := c.bw.Write(c.scratch); err != nil {
		return Ack{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Ack{}, err
	}
	ack, err := c.readAck()
	if err != nil {
		return Ack{}, err
	}
	if ack.Seq != c.seq {
		return Ack{}, fmt.Errorf("framing: ack for frame %d, want %d (pipelined acks must be drained with ReadAck)", ack.Seq, c.seq)
	}
	return ack, nil
}

// Redialer dials a peer with capped exponential backoff until it succeeds
// or the context ends — the reconnect loop every edge needs to survive a
// root restart without hot-looping. The zero value is usable with just
// Addr set; Min and Max default to 100ms and 15s.
type Redialer struct {
	// Addr is the peer address to dial.
	Addr string
	// Timeout bounds each individual connect attempt (0: one Min..Max
	// backoff step, so a black-holed connect cannot stall the loop).
	Timeout time.Duration
	// Min is the first backoff delay (default 100ms).
	Min time.Duration
	// Max caps the backoff delay (default 15s).
	Max time.Duration
	// OnError, when set, observes each failed attempt (logging hook).
	OnError func(err error)

	// delay is the current backoff, reset by a successful dial.
	delay time.Duration
}

// backoffStep returns the delay to sleep after a failure and advances the
// doubling schedule.
func (r *Redialer) backoffStep() time.Duration {
	min, max := r.Min, r.Max
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 15 * time.Second
	}
	if r.delay < min {
		r.delay = min
	} else {
		r.delay *= 2
		if r.delay > max {
			r.delay = max
		}
	}
	return r.delay
}

// Dial attempts to connect until it succeeds or ctx ends, sleeping the
// current backoff between failures. A successful dial resets the backoff
// schedule for the next call.
func (r *Redialer) Dial(ctx context.Context) (*Client, error) {
	for {
		timeout := r.Timeout
		if timeout <= 0 {
			timeout = r.Max
			if timeout <= 0 {
				timeout = 15 * time.Second
			}
		}
		dialCtx, cancel := context.WithTimeout(ctx, timeout)
		c, err := DialContext(dialCtx, r.Addr)
		cancel()
		if err == nil {
			r.delay = 0
			return c, nil
		}
		if r.OnError != nil {
			r.OnError(err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(r.backoffStep()):
		}
	}
}

// Close performs the graceful close handshake (best effort) and closes the
// connection.
func (c *Client) Close() error {
	c.seq++
	c.scratch = AppendHeader(c.scratch[:0], Header{Type: TypeClose, Seq: c.seq, Len: 0})
	if _, err := c.bw.Write(c.scratch); err == nil {
		if err := c.bw.Flush(); err == nil {
			ReadAck(c.br) //nolint:errcheck // best-effort goodbye ack
		}
	}
	return c.conn.Close()
}
