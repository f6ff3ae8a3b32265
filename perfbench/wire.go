package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// Frame constants of the netgw wire format (internal/netgw/frame.go):
// an 8-byte header — magic "WG", version, type, big-endian payload
// length — then the payload. A data frame's payload is one link packet,
// whose sequence number sits at bytes 4..8.
const (
	frameHdrLen = 8
	frameData   = 0x02
	frameAck    = 0x82
)

// wireStats is what the Dial wrapper saw of one stream. The client
// goroutine owns every field but acks, which the connection's reader
// goroutine appends under mu.
type wireStats struct {
	// sched, when set, paces data frames on the open-loop schedule.
	sched *schedule
	// rec, when set, records a span around every data-frame write
	// (after any pacing wait).
	rec *recorder
	// dataFrames counts data frames written, rewinds included.
	dataFrames int
	// lags are how late (ms) frames went out whose write call came
	// before their due time; backlogged counts the frames whose write
	// call came after it (the client was held by its in-flight cap).
	lags       []float64
	backlogged int

	mu   sync.Mutex
	acks []ack
}

// schedule is one stream's open-loop clock.
type schedule struct {
	start   time.Time
	rate    float64
	streams int
	stream  int
}

// due returns when window i of the stream is due.
func (s *schedule) due(i int) time.Time {
	return s.start.Add(dueOffset(s.rate, s.streams, s.stream, i))
}

func (st *wireStats) addAck(a ack) {
	st.mu.Lock()
	st.acks = append(st.acks, a)
	st.mu.Unlock()
}

// wireConn wraps a client connection. Writes: a data frame is held
// until its window is due, then sent. Reads: a reader goroutine drains
// the socket as bytes arrive and timestamps every ack frame, so an ack
// is timed on arrival even while the client is blocked pacing a write.
type wireConn struct {
	net.Conn
	st *wireStats
	// The client writes each frame as a header write followed, when
	// the payload is not empty, by one payload write. payloadType is
	// the type of the frame whose payload the next write carries (0
	// when the next write is a header); hdr holds a data frame's header
	// until its payload is written.
	payloadType byte
	hdr         []byte

	mu   sync.Mutex
	cond *sync.Cond
	rbuf []byte
	rerr error
	done chan struct{}
}

func newWireConn(c net.Conn, st *wireStats) *wireConn {
	w := &wireConn{Conn: c, st: st, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.readLoop()
	return w
}

func (w *wireConn) Write(b []byte) (int, error) {
	typ := w.payloadType
	w.payloadType = 0
	if typ == 0 {
		if len(b) == frameHdrLen && binary.BigEndian.Uint32(b[4:]) > 0 {
			w.payloadType = b[3]
			if b[3] == frameData {
				w.hdr = append(w.hdr[:0], b...)
				return len(b), nil
			}
		}
		return w.Conn.Write(b)
	}
	if typ != frameData {
		return w.Conn.Write(b)
	}
	w.st.dataFrames++
	if s := w.st.sched; s != nil && len(b) >= 8 {
		due := s.due(int(binary.BigEndian.Uint32(b[4:8])))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			w.st.lags = append(w.st.lags, ms(time.Since(due)))
		} else {
			w.st.backlogged++
		}
	}
	id := w.st.rec.begin("netgw.write")
	if _, err := w.Conn.Write(w.hdr); err != nil {
		w.st.rec.end(id)
		return 0, err
	}
	n, err := w.Conn.Write(b)
	w.st.rec.end(id)
	return n, err
}

func (w *wireConn) readLoop() {
	defer close(w.done)
	buf := make([]byte, 64<<10)
	var p frameParser
	for {
		n, err := w.Conn.Read(buf)
		now := time.Now()
		if n > 0 {
			p.feed(buf[:n], func(typ byte, payload []byte) {
				if typ == frameAck && len(payload) >= 4 {
					w.st.addAck(ack{next: binary.BigEndian.Uint32(payload), at: now})
				}
			})
		}
		w.mu.Lock()
		w.rbuf = append(w.rbuf, buf[:n]...)
		if err != nil {
			w.rerr = err
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (w *wireConn) Read(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.rbuf) == 0 && w.rerr == nil {
		w.cond.Wait()
	}
	if len(w.rbuf) > 0 {
		n := copy(b, w.rbuf)
		w.rbuf = w.rbuf[n:]
		return n, nil
	}
	return 0, w.rerr
}

// Close closes the socket and waits for the reader goroutine to end.
func (w *wireConn) Close() error {
	err := w.Conn.Close()
	<-w.done
	return err
}

// frameParser reassembles netgw frames from a byte stream split at
// arbitrary points.
type frameParser struct {
	hdr     [frameHdrLen]byte
	nhdr    int
	payload []byte
	need    int
}

func (p *frameParser) feed(b []byte, emit func(typ byte, payload []byte)) {
	for len(b) > 0 {
		if p.nhdr < frameHdrLen {
			c := copy(p.hdr[p.nhdr:], b)
			p.nhdr += c
			b = b[c:]
			if p.nhdr < frameHdrLen {
				return
			}
			p.need = int(binary.BigEndian.Uint32(p.hdr[4:]))
			p.payload = p.payload[:0]
		}
		c := p.need - len(p.payload)
		if c > len(b) {
			c = len(b)
		}
		p.payload = append(p.payload, b[:c]...)
		b = b[c:]
		if len(p.payload) == p.need {
			emit(p.hdr[3], p.payload)
			p.nhdr = 0
		}
	}
}
