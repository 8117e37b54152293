package serving

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"
)

// reachProtocol is the framed reach RPC's Upgrade token ("Connections").
// A shard answers a token it does not speak over plain HTTP, so a proxy and
// a shard of different frame versions still interoperate.
const reachProtocol = "nanotarget-reach-frames/2"

// shardIdleConnTimeout is how long the proxy keeps an idle connection.
const shardIdleConnTimeout = 90 * time.Second

// maxAnswerBody bounds a shard answer the proxy reads, HTTP or framed.
const maxAnswerBody = 1 << 20

var (
	errBadFrame = errors.New("serving: malformed reach frame")
	// errStaleConn: a pooled connection failed before answering a byte.
	errStaleConn = errors.New("serving: pooled shard connection closed before answering")
)

// appendRequestFrame appends a request frame: the deadline budget in whole
// milliseconds, then the share body's length, as uvarints, then the body.
func appendRequestFrame(b []byte, budgetMs int64, body []byte) []byte {
	b = binary.AppendUvarint(b, uint64(budgetMs))
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

// readRequestFrame reads a request frame, reusing buf's array for the body.
// The budget counts from its arrival, so a body that trails it spends it. A
// zero or overflowing budget, a body above maxShareBody and a truncated
// frame are errors; an EOF before the frame is io.EOF.
func readRequestFrame(r *bufio.Reader, buf []byte) (deadline time.Time, body []byte, err error) {
	ms, err := binary.ReadUvarint(r)
	if err != nil {
		return deadline, nil, err
	}
	if ms == 0 || ms > math.MaxInt64/uint64(time.Millisecond) {
		return deadline, nil, errBadFrame
	}
	deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	n, err := binary.ReadUvarint(r)
	switch {
	case err != nil:
		return deadline, nil, err
	case n > maxShareBody:
		return deadline, nil, errBadFrame
	case uint64(cap(buf)) < n:
		buf = make([]byte, n)
	}
	body = buf[:n]
	_, err = io.ReadFull(r, body)
	return deadline, body, err
}

// appendAnswerFrame appends an answer frame: the HTTP status in two bytes
// big-endian, the payload's length as a uvarint, then the payload.
func appendAnswerFrame(b []byte, status int, payload []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(status))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// readAnswerFrame reads an answer frame. A status outside [200, 599], a
// payload above maxAnswerBody and a truncated frame are errors.
func readAnswerFrame(r *bufio.Reader) (data []byte, status int, err error) {
	var st [2]byte
	if _, err = io.ReadFull(r, st[:]); err != nil {
		return nil, 0, err
	}
	status = int(binary.BigEndian.Uint16(st[:]))
	n, err := binary.ReadUvarint(r)
	switch {
	case err != nil:
		return nil, 0, err
	case status < 200 || status > 599 || n > maxAnswerBody:
		return nil, 0, errBadFrame
	}
	data = make([]byte, n)
	if _, err = io.ReadFull(r, data); err != nil {
		return nil, 0, err
	}
	return data, status, nil
}

// upgrade switches a reach RPC's connection to frames, the RPC's answer
// first, and serves frames on it. It reports false, having written
// nothing, when w cannot be hijacked.
func (s *ShardServer) upgrade(w http.ResponseWriter, r *http.Request, status int, payload []byte) bool {
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return false
	}
	rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + reachProtocol + "\r\n\r\n")
	rw.Write(appendAnswerFrame(nil, status, payload))
	var idle time.Duration // between frames, as between HTTP requests
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		idle = srv.IdleTimeout
	}
	// Frames bring their own budgets: drop the first RPC's deadline.
	s.serveFrames(context.WithoutCancel(r.Context()), conn, rw, idle)
	return true
}

// serveFrames flushes rw, then answers request frames, each under its own
// budget, until the proxy closes conn, sends a bad frame or idles past idle
// (zero: no limit); then it closes conn.
func (s *ShardServer) serveFrames(ctx context.Context, conn net.Conn, rw *bufio.ReadWriter, idle time.Duration) {
	defer conn.Close()
	var body, out []byte
	for rw.Flush() == nil {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		deadline, b, err := readRequestFrame(rw.Reader, body)
		if err != nil {
			return
		}
		body = b
		fctx, cancel := context.WithDeadline(ctx, deadline)
		status, payload := s.shareAnswer(fctx, body)
		cancel()
		out = appendAnswerFrame(out[:0], status, payload)
		rw.Write(out)
	}
}

// frameConn is an upgraded proxy-to-shard connection, one RPC at a time.
type frameConn struct {
	rwc   io.ReadWriteCloser
	br    *bufio.Reader
	frame []byte    // the request frame being sent
	since time.Time // when it was last pooled
}

// exchange sends frame (none for the upgrading RPC's answer) and reads the
// answer while ctx lasts: ctx ending closes c and fails the RPC with ctx's
// error. After an answer c goes back to pool; after any error it is closed.
// A failure before any answer byte to a sent frame wraps errStaleConn.
func (c *frameConn) exchange(ctx context.Context, pool framePool, frame []byte) (data []byte, status int, err error) {
	stop := context.AfterFunc(ctx, func() { c.rwc.Close() })
	if frame != nil {
		if _, err = c.rwc.Write(frame); err == nil {
			_, err = c.br.Peek(1)
		}
		if err != nil {
			err = fmt.Errorf("%w: %v", errStaleConn, err)
		}
	}
	if err == nil {
		data, status, err = readAnswerFrame(c.br)
	}
	if !stop() {
		err = fmt.Errorf("serving: reach frame: %w", ctx.Err())
	}
	if err != nil {
		c.rwc.Close()
		return nil, 0, err
	}
	pool.put(c)
	return data, status, nil
}

// framePool is one replica's idle upgraded connections, oldest first, with
// capacity shardIdleConnsPerHost; a nil pool pools nothing.
type framePool chan *frameConn

// get takes a pooled connection, closing any idle past shardIdleConnTimeout
// instead, or returns nil.
func (fp framePool) get() *frameConn {
	for {
		select {
		case c := <-fp:
			if time.Since(c.since) <= shardIdleConnTimeout {
				return c
			}
			c.rwc.Close()
		default:
			return nil
		}
	}
}

// put pools c, or closes it when the pool is full.
func (fp framePool) put(c *frameConn) {
	c.since = time.Now()
	select {
	case fp <- c:
	default:
		c.rwc.Close()
	}
}
