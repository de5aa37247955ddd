// Package rpc provides a bidirectional request/response protocol on top
// of a transport.Conn. Both ends of a connection can originate calls:
// ccPFS clients call lock and IO methods on servers, and lock servers
// call revocation callbacks back into clients over the same connection —
// mirroring how the paper's prototype uses CaRT's client/server RPC in
// both directions.
//
// Inbound requests are dispatched each in its own goroutine, so a lock
// request that blocks inside the server (waiting for conflict resolution)
// never stalls an unrelated message on the same connection.
//
// Every call carries a context: cancellation or deadline expiry unblocks
// the waiter promptly, deregisters the pending-call entry (a late reply
// is dropped as stale), and surfaces as a typed wire error
// (wire.ErrTimeout / wire.ErrCanceled). An abandoned call additionally
// sends a best-effort cancel frame so the peer withdraws the server-side
// work (e.g. a queued lock waiter). Handlers receive a per-call context
// that is canceled by that frame and by connection teardown, so
// server-side work aborts instead of running headless.
package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// Handler serves one method. It receives a per-call context — canceled
// when the caller abandons the call or the connection closes — and the
// request payload, and returns the reply message. Returning an error
// sends a typed wire.Error back to the caller instead.
type Handler func(ctx context.Context, payload []byte) (wire.Msg, error)

const (
	kindRequest  = 0
	kindResponse = 1
	kindCancel   = 2

	statusOK  = 0
	statusErr = 1

	headerLen = 1 + 8 + 1 + 1 // kind, id, method, status
)

// Endpoint is one end of an RPC connection.
type Endpoint struct {
	conn     transport.Conn
	clk      sim.Clock
	limiter  *sim.RateLimiter
	handlers map[wire.Method]Handler
	// metrics, when non-nil, instruments this endpoint (see Metrics).
	// Written only before Start, so the read loop and callers see a
	// stable pointer without synchronization.
	metrics *Metrics

	// baseCtx is the endpoint's lifecycle: handlers run under it and it
	// is canceled when the read loop exits, aborting abandoned work.
	baseCtx context.Context
	cancel  context.CancelFunc

	nextID atomic.Uint64
	// pending (outbound calls awaiting replies) and active (inbound
	// requests, for cancel frames) are lock-free call tables — see
	// pending.go for the slot protocol. Issue/complete/forget/cancel
	// never serialize on an endpoint-wide lock.
	pending   callTable[chan response]
	active    callTable[*callCtx]
	onClose   func(*Endpoint)
	startOnce sync.Once

	// inflight tracks dispatched handler goroutines for Drain;
	// inflightN mirrors its count so a virtual-time Drain can park on
	// it instead of blocking in WaitGroup.Wait.
	inflight  sync.WaitGroup
	inflightN atomic.Int64

	// Tag carries endpoint-scoped state for handlers, e.g. the client
	// session a server associates with this connection.
	Tag atomic.Value
}

type response struct {
	payload []byte
	err     error
}

// chanPool recycles the single-slot reply channels Call blocks on.
// Recycling is safe only on paths where Call has RECEIVED from the
// channel: the pending-table entry is claimed by a CAS that exactly one
// of complete/forget/shutdown-drain wins before sending, so each
// registered channel sees at most one send, and a receive proves that
// send already happened. On the abandon paths (context fired with no
// reply yet, send failure) a late sender may still hold the channel, so
// it is leaked to the GC instead — pooling it would let a stale reply
// surface on an unrelated call.
var chanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// Options configure an endpoint.
type Options struct {
	// Limiter, when non-nil, caps the rate at which inbound requests are
	// admitted — the lock server's OPS bound from Table I.
	Limiter *sim.RateLimiter
	// OnClose runs once when the endpoint's read loop exits.
	OnClose func(*Endpoint)
	// Metrics, when non-nil, instruments every endpoint built with these
	// options. Safe to share across endpoints (all fields are atomic).
	Metrics *Metrics
	// Clock is the endpoint's time source. Virtual clocks serialize the
	// read loop, handlers, and reply waits deterministically; the zero
	// value is ordinary wall-clock execution.
	Clock sim.Clock
}

// NewEndpoint wraps conn. Register handlers with Handle, then call Start
// to begin serving. Handle must not be called after Start.
func NewEndpoint(conn transport.Conn, opts Options) *Endpoint {
	ctx, cancel := context.WithCancel(context.Background())
	ep := &Endpoint{
		conn:     conn,
		clk:      opts.Clock,
		limiter:  opts.Limiter,
		handlers: make(map[wire.Method]Handler),
		baseCtx:  ctx,
		cancel:   cancel,
		onClose:  opts.OnClose,
		metrics:  opts.Metrics,
	}
	if ep.metrics != nil {
		ep.metrics.attach(ep)
	}
	return ep
}

// Handle registers a handler for method.
func (ep *Endpoint) Handle(method wire.Method, h Handler) {
	ep.handlers[method] = h
}

// SetMetrics attaches an instrument set. Like Handle, it must be
// called before Start.
func (ep *Endpoint) SetMetrics(m *Metrics) {
	ep.metrics = m
	m.attach(ep)
}

// Start launches the read loop. It is idempotent: extra calls are
// no-ops, so a setup callback and its server can both call it safely
// without racing two read loops on one connection.
func (ep *Endpoint) Start() {
	ep.startOnce.Do(func() { ep.clk.Go(ep.readLoop) })
}

// Close tears down the connection; in-flight calls fail with ErrClosed.
func (ep *Endpoint) Close() error { return ep.conn.Close() }

// Context returns the endpoint's lifecycle context, canceled when the
// connection tears down.
func (ep *Endpoint) Context() context.Context { return ep.baseCtx }

// Pending returns the number of registered in-flight outbound calls
// (tests and introspection: a canceled call must not leave an entry).
func (ep *Endpoint) Pending() int {
	return ep.pending.length()
}

// Drain blocks until every dispatched inbound handler has completed, or
// ctx fires. It does not stop new requests from arriving; callers stop
// admission first (close the listener, set a draining flag), then drain.
func (ep *Endpoint) Drain(ctx context.Context) error {
	if v := ep.clk.V(); v != nil {
		for ep.inflightN.Load() > 0 {
			if err := ctx.Err(); err != nil {
				return wire.FromContext(err)
			}
			if v.WaitOn(&ep.inflightN) == sim.WakeExited {
				goto real
			}
		}
		return nil
	}
real:
	done := make(chan struct{})
	go func() {
		ep.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return wire.FromContext(ctx.Err())
	}
}

// handlerStart/handlerDone bracket a dispatched handler for Drain.
func (ep *Endpoint) handlerStart() {
	ep.inflight.Add(1)
	ep.inflightN.Add(1)
}

func (ep *Endpoint) handlerDone() {
	if ep.inflightN.Add(-1) == 0 {
		ep.clk.Wakeup(&ep.inflightN)
	}
	ep.inflight.Done()
}

// Call sends a request and blocks until the reply arrives, ctx fires, or
// the connection closes, decoding the reply into reply (which may be nil
// to discard the payload). A fired context returns wire.ErrTimeout or
// wire.ErrCanceled and guarantees the pending-call entry is gone; the
// eventual late reply, if any, is dropped as stale.
func (ep *Endpoint) Call(ctx context.Context, method wire.Method, req wire.Msg, reply wire.Msg) error {
	m := ep.metrics
	if m == nil {
		return ep.call(ctx, method, req, reply)
	}
	// Straight-line instrumentation (no defer). The sampling decision is
	// a plain load — the count itself is bumped inside call, after the
	// request frame is on the wire, where the atomic overlaps with the
	// server working. Every sampleMask+1-th call per method — starting
	// with the first, so a lightly used method still shows a latency —
	// also pays two monotonic clock reads and a histogram record.
	if (m.calls[method].Load()+1)&m.sampleMask != 1&m.sampleMask {
		return ep.call(ctx, method, req, reply)
	}
	start := obs.Now()
	err := ep.call(ctx, method, req, reply)
	m.callLat[method].Record(obs.Now() - start)
	return err
}

func (ep *Endpoint) call(ctx context.Context, method wire.Method, req wire.Msg, reply wire.Msg) error {
	if err := ctx.Err(); err != nil {
		return wire.FromContext(err)
	}
	id := ep.nextID.Add(1)
	ch := chanPool.Get().(chan response)

	if !ep.pending.register(id, ch) {
		chanPool.Put(ch)
		return transport.ErrClosed
	}

	sendErr := ep.send(ctx, kindRequest, id, method, statusOK, req)
	if m := ep.metrics; m != nil {
		// Counts attempts (send failures included), bumped after the
		// request frame is handed off so the atomic overlaps with the
		// server starting on it rather than delaying the wait.
		m.calls[method].Inc()
	}
	if sendErr != nil {
		// The send failed: deregister so the pending map cannot grow
		// unboundedly under a flaky transport. The entry may already be
		// gone if shutdown raced us (and a sender may then still hold
		// the channel, so it is not recycled). Delete is idempotent.
		ep.forget(id)
		return sendErr
	}
	var resp response
	gotV := false
	if v := ep.clk.V(); v != nil {
		r, got, handled := ep.waitReplyVirtual(v, ctx, id, method, ch)
		if handled && !got {
			return wire.FromContext(ctx.Err())
		}
		resp, gotV = r, handled
	}
	if !gotV {
		select {
		case resp = <-ch:
			chanPool.Put(ch)
		case <-ctx.Done():
			ep.forget(id)
			// The response may have been delivered between the ctx firing
			// and the forget; prefer it — the call did complete.
			select {
			case resp = <-ch:
				chanPool.Put(ch)
			default:
				// Abandoned for good: tell the peer so it withdraws the
				// server-side work (a queued lock waiter, a stalled flush).
				// Best effort under the endpoint's lifecycle context — if
				// the frame is lost to teardown, teardown cancels the
				// handler anyway. The channel is NOT recycled: complete may
				// have claimed it before forget and be about to send.
				go ep.send(ep.baseCtx, kindCancel, id, method, statusOK, nil)
				return wire.FromContext(ctx.Err())
			}
		}
	}
	if resp.err != nil {
		return resp.err
	}
	if reply == nil {
		return nil
	}
	if err := wire.Unmarshal(resp.payload, reply); err != nil {
		return fmt.Errorf("rpc: decoding %T reply: %w", reply, err)
	}
	return nil
}

// BatchCall describes one call of a CallBatch. Reply may be nil to
// discard the payload; Err receives the per-call outcome.
type BatchCall struct {
	Method wire.Method
	Req    wire.Msg
	Reply  wire.Msg
	Err    error
}

// CallBatch issues several requests whose frames leave as one coalesced
// transport batch (transport.SendBatch: one writev group commit on
// tcpnet, one bandwidth charge on memnet) and waits for all replies —
// the control-plane analogue of the windowed flush path. Each call's
// outcome lands in calls[i].Err; the returned error is the first
// failure, nil when every call succeeded. A fired context abandons the
// not-yet-answered calls exactly like Call: entries are deregistered,
// best-effort cancel frames are sent, and late replies are dropped.
func (ep *Endpoint) CallBatch(ctx context.Context, calls []BatchCall) error {
	m := ep.metrics
	if m == nil {
		return ep.callBatch(ctx, calls)
	}
	// Batches are already coalesced work, so the clock pair amortizes
	// over the batch: count every call exactly, time the batch once,
	// and record the shared round-trip for each sampled call.
	start := obs.Now()
	err := ep.callBatch(ctx, calls)
	elapsed := obs.Now() - start
	for i := range calls {
		if m.calls[calls[i].Method].Inc()&m.sampleMask == 1&m.sampleMask {
			m.callLat[calls[i].Method].Record(elapsed)
		}
	}
	return err
}

func (ep *Endpoint) callBatch(ctx context.Context, calls []BatchCall) error {
	if len(calls) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return wire.FromContext(err)
	}
	ids := make([]uint64, len(calls))
	chs := make([]chan response, len(calls))
	for i := range calls {
		ids[i] = ep.nextID.Add(1)
		ch := chanPool.Get().(chan response)
		if !ep.pending.register(ids[i], ch) {
			// Closed mid-batch: withdraw what we registered (a drain may
			// have claimed some — those channels are owned by it and not
			// recycled) and fail the whole batch.
			chanPool.Put(ch)
			for j := 0; j < i; j++ {
				if _, ok := ep.pending.take(ids[j]); ok {
					chanPool.Put(chs[j])
				}
			}
			for j := range calls {
				calls[j].Err = transport.ErrClosed
			}
			return transport.ErrClosed
		}
		chs[i] = ch
	}

	// Encode every frame, hand them to the transport as one batch, then
	// recycle the encoders — transports must not retain frames after
	// SendBatch returns (the transport.Conn ownership contract).
	encs := make([]*wire.Encoder, len(calls))
	frames := make([][]byte, len(calls))
	for i := range calls {
		enc := wire.GetEncoder(frameSize(calls[i].Req))
		enc.U8(kindRequest)
		enc.U64(ids[i])
		enc.U8(uint8(calls[i].Method))
		enc.U8(statusOK)
		if calls[i].Req != nil {
			calls[i].Req.Encode(enc)
		}
		encs[i] = enc
		frames[i] = enc.Bytes()
	}
	sendErr := transport.SendBatch(ctx, ep.conn, frames)
	if m := ep.metrics; m != nil {
		// Attempted bytes, counted after the batch is handed to the
		// transport (overlapping the peer's read) — errors still count.
		var total int64
		for _, f := range frames {
			total += int64(len(f))
		}
		m.BytesOut.Add(total)
	}
	for _, enc := range encs {
		wire.PutEncoder(enc)
	}
	if sendErr != nil {
		// Deregister everything; frames that did go out may still be
		// answered, and those late replies are dropped as stale — the
		// same contract as a failed single Call.
		for i := range calls {
			ep.forget(ids[i])
			calls[i].Err = sendErr
		}
		return sendErr
	}

	var firstErr error
	for i := range calls {
		var resp response
		got := false
		handledV := false
		if v := ep.clk.V(); v != nil {
			if r, g, handled := ep.waitReplyVirtual(v, ctx, ids[i], calls[i].Method, chs[i]); handled {
				resp, got, handledV = r, g, true
				if !g {
					calls[i].Err = wire.FromContext(ctx.Err())
				}
			}
		}
		if !handledV {
			select {
			case resp = <-chs[i]:
				chanPool.Put(chs[i])
				got = true
			case <-ctx.Done():
				ep.forget(ids[i])
				// Prefer a reply that raced the cancellation (see Call).
				select {
				case resp = <-chs[i]:
					chanPool.Put(chs[i])
					got = true
				default:
					// Abandoned: cancel the server-side work. The channel is
					// not recycled — a late complete may still send on it.
					go ep.send(ep.baseCtx, kindCancel, ids[i], calls[i].Method, statusOK, nil)
					calls[i].Err = wire.FromContext(ctx.Err())
				}
			}
		}
		if got {
			switch {
			case resp.err != nil:
				calls[i].Err = resp.err
			case calls[i].Reply != nil:
				if err := wire.Unmarshal(resp.payload, calls[i].Reply); err != nil {
					calls[i].Err = fmt.Errorf("rpc: decoding %T reply: %w", calls[i].Reply, err)
				}
			}
		}
		if calls[i].Err != nil && firstErr == nil {
			firstErr = calls[i].Err
		}
	}
	return firstErr
}

// waitReplyVirtual blocks for one reply under a virtual clock, parked
// on the reply channel until complete (or the shutdown drain) wakes
// it. handled=false means the virtual run ended mid-wait and the
// caller must fall back to its real-time select; got=false (with
// handled=true) means ctx fired and the call was abandoned — the
// pending entry is forgotten and a cancel frame is on its way.
func (ep *Endpoint) waitReplyVirtual(v *sim.VClock, ctx context.Context, id uint64, method wire.Method, ch chan response) (resp response, got, handled bool) {
	for {
		select {
		case resp = <-ch:
			chanPool.Put(ch)
			return resp, true, true
		default:
		}
		if ctx.Err() != nil {
			ep.forget(id)
			select {
			case resp = <-ch:
				chanPool.Put(ch)
				return resp, true, true
			default:
			}
			ep.clk.Go(func() { ep.send(ep.baseCtx, kindCancel, id, method, statusOK, nil) })
			return response{}, false, true
		}
		if v.WaitOn(ch) == sim.WakeExited {
			return response{}, false, false
		}
	}
}

// forget deregisters a pending call entry. A miss is normal: complete
// or the shutdown drain may have claimed the entry first (and then owns
// the reply channel).
func (ep *Endpoint) forget(id uint64) {
	ep.pending.take(id)
}

func (ep *Endpoint) send(ctx context.Context, kind byte, id uint64, method wire.Method, status byte, m wire.Msg) error {
	// The encoder is recycled as soon as Send returns: transports must
	// not retain the frame afterwards (see the transport.Conn contract).
	enc := wire.GetEncoder(frameSize(m))
	enc.U8(kind)
	enc.U64(id)
	enc.U8(uint8(method))
	enc.U8(status)
	if m != nil {
		m.Encode(enc)
	}
	n := int64(len(enc.Bytes()))
	err := ep.conn.Send(ctx, enc.Bytes())
	wire.PutEncoder(enc)
	if m := ep.metrics; m != nil {
		// Counted after Send: the peer is already consuming the frame,
		// so this atomic overlaps with remote work instead of stretching
		// the round-trip chain. BytesOut lags the wire by one frame.
		m.BytesOut.Add(n)
	}
	return err
}

// sizedMsg is a message that reports its exact encoded length: the
// block-carrying ones, whose frames are dominated by payload.
type sizedMsg interface{ EncodedSize() int }

// frameSize returns the capacity to request for a frame carrying m: the
// exact size when m reports one that a pooled class serves
// (wire.MaxPresized), else room for a small control message, which a
// large payload grows by append.
func frameSize(m wire.Msg) int {
	if s, ok := m.(sizedMsg); ok {
		if n := headerLen + s.EncodedSize(); n <= wire.MaxPresized {
			return n
		}
	}
	return headerLen + 64
}

func (ep *Endpoint) sendErr(ctx context.Context, id uint64, method wire.Method, err error) error {
	enc := wire.GetEncoder(headerLen + len(err.Error()) + 1)
	enc.U8(kindResponse)
	enc.U64(id)
	enc.U8(uint8(method))
	enc.U8(statusErr)
	wire.EncodeError(enc, err)
	n := int64(len(enc.Bytes()))
	serr := ep.conn.Send(ctx, enc.Bytes())
	wire.PutEncoder(enc)
	if m := ep.metrics; m != nil {
		m.BytesOut.Add(n)
	}
	return serr
}

func (ep *Endpoint) readLoop() {
	// The read loop itself is bounded by connection close, not by a
	// context: Close unblocks Recv with ErrClosed on every transport.
	var err error
	for {
		var frame []byte
		frame, err = ep.conn.Recv(context.Background())
		if err != nil {
			break
		}
		if len(frame) < headerLen {
			err = fmt.Errorf("rpc: short frame (%d bytes)", len(frame))
			break
		}
		kind := frame[0]
		id := binary.LittleEndian.Uint64(frame[1:9])
		method := wire.Method(frame[9])
		status := frame[10]
		payload := frame[headerLen:]

		switch kind {
		case kindRequest:
			ep.dispatch(id, method, payload)
		case kindResponse:
			ep.complete(id, status, payload)
		case kindCancel:
			ep.cancelInbound(id)
		default:
			err = fmt.Errorf("rpc: unknown frame kind %d", kind)
		}
		if m := ep.metrics; m != nil {
			// Counted after the frame is acted on: delivering a response
			// (or dispatching a request) wakes another goroutine, and the
			// atomic add overlaps with that work instead of delaying it.
			m.BytesIn.Add(int64(len(frame)))
		}
		if err != nil {
			break
		}
	}
	ep.shutdown()
}

func (ep *Endpoint) dispatch(id uint64, method wire.Method, payload []byte) {
	h, ok := ep.handlers[method]
	if !ok {
		ep.handlerStart()
		ep.clk.Go(func() {
			defer ep.handlerDone()
			ep.sendErr(ep.baseCtx, id, method, wire.Errorf(wire.CodeInvalid, "rpc: no handler for method %d", method))
		})
		return
	}
	if ep.limiter != nil {
		ep.limiter.Wait()
	}
	// Each request gets its own cancelable context, registered before the
	// next frame is read so a cancel frame can never race ahead of its
	// request on this ordered connection. callCtx does not attach to
	// baseCtx's child list (that registration is a mutex the old code
	// took twice per request); teardown instead cancels it explicitly
	// when the active table drains.
	cc := &callCtx{base: ep.baseCtx}
	if !ep.active.register(id, cc) {
		// Teardown already drained the table; run the handler with the
		// context pre-canceled so it aborts promptly.
		cc.cancel()
	}
	ep.handlerStart()
	ep.clk.Go(func() {
		defer ep.handlerDone()
		defer func() {
			// A miss means a cancel frame or the shutdown drain claimed
			// the entry (and called cancel); either way the entry is gone.
			ep.active.take(id)
			cc.cancel()
		}()
		ctx := context.Context(cc)
		// The sampling decision reads the counter (a plain load) up front;
		// the count itself is bumped after the reply frame is on the wire,
		// where the atomic overlaps with the peer processing the reply.
		// Under concurrent handlers the load-based decision may time a
		// neighbor of the exact n-th run — sampling is statistical anyway.
		m := ep.metrics
		var start, elapsed int64
		timed := false
		if m != nil && (m.handles[method].Load()+1)&m.sampleMask == 1&m.sampleMask {
			timed = true
			start = obs.Now()
		}
		reply, err := h(ctx, payload)
		if timed {
			elapsed = obs.Now() - start
		}
		if err != nil {
			ep.sendErr(ep.baseCtx, id, method, err)
		} else {
			ep.send(ep.baseCtx, kindResponse, id, method, statusOK, reply)
			// A reply whose payload rides in a pooled buffer (e.g. a read
			// served from a pooled block) is returned to its pool now that
			// the encoded frame is on the wire.
			if r, ok := reply.(wire.Recycler); ok {
				r.Recycle()
			}
		}
		if m != nil {
			m.handles[method].Inc()
			if timed {
				m.handleLat[method].Record(elapsed)
			}
		}
	})
}

// cancelInbound handles a peer's cancel frame: the named request's
// context fires, unwedging whatever the handler is blocked on. A miss is
// normal — the handler already completed. The entry is taken, not
// peeked: the claim CAS is what makes firing the context race-free
// against the handler's own deregistration, and cancel frames are
// one-shot per id so nothing is lost.
func (ep *Endpoint) cancelInbound(id uint64) {
	if cc, ok := ep.active.take(id); ok {
		cc.cancel()
	}
}

func (ep *Endpoint) complete(id uint64, status byte, payload []byte) {
	ch, ok := ep.pending.take(id)
	if !ok {
		return // stale (canceled) or duplicate response
	}
	if status == statusErr {
		ch <- response{err: wire.DecodeError(wire.NewDecoder(payload))}
		ep.clk.Wakeup(ch)
		return
	}
	// The payload aliases the frame, which is private to this endpoint
	// after Recv; handing it to the caller is safe.
	ch <- response{payload: payload}
	ep.clk.Wakeup(ch)
}

func (ep *Endpoint) shutdown() {
	pend, first := ep.pending.closeAndDrain()
	if !first {
		return
	}
	for _, ch := range pend {
		ch <- response{err: transport.ErrClosed}
		ep.clk.Wakeup(ch)
	}
	ep.conn.Close()
	// Cancel the lifecycle context so handlers still running for this
	// connection observe the teardown and can abort, and fire every
	// live per-call context (callCtx does not chain off baseCtx, so the
	// drain is what delivers teardown to blocked handlers).
	ep.cancel()
	ccs, _ := ep.active.closeAndDrain()
	for _, cc := range ccs {
		cc.cancel()
	}
	if ep.metrics != nil {
		// Stop contributing to the in-flight derivation; the scalar
		// counters the endpoint already recorded stay in the Metrics.
		ep.metrics.detach(ep)
	}
	if ep.onClose != nil {
		ep.onClose(ep)
	}
}

// Server accepts connections from a listener and builds an endpoint for
// each via a setup callback that registers the handlers.
type Server struct {
	listener transport.Listener
	setup    func(*Endpoint)
	opts     Options

	mu     sync.Mutex
	eps    map[*Endpoint]struct{}
	closed bool
	done   chan struct{}
}

// NewServer returns a server that will accept on l, configuring every
// inbound endpoint with setup before starting it.
func NewServer(l transport.Listener, opts Options, setup func(*Endpoint)) *Server {
	return &Server{
		listener: l,
		setup:    setup,
		opts:     opts,
		eps:      make(map[*Endpoint]struct{}),
		done:     make(chan struct{}),
	}
}

// waitDone blocks until the accept loop has exited, mediated when the
// server runs on a virtual clock.
func (s *Server) waitDone() {
	if v := s.opts.Clock.V(); v != nil {
		for {
			select {
			case <-s.done:
				return
			default:
			}
			if v.WaitOn(s.done) == sim.WakeExited {
				break
			}
		}
	}
	<-s.done
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve() {
	defer func() {
		close(s.done)
		s.opts.Clock.Wakeup(s.done)
	}()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		opts := s.opts
		userClose := opts.OnClose
		opts.OnClose = func(ep *Endpoint) {
			s.mu.Lock()
			delete(s.eps, ep)
			s.mu.Unlock()
			if userClose != nil {
				userClose(ep)
			}
		}
		ep := NewEndpoint(conn, opts)
		// Register before setup/Start so a concurrent Close cannot miss
		// the endpoint; if Close already ran, drop the connection instead
		// of leaking a read loop it will never tear down.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.eps[ep] = struct{}{}
		s.mu.Unlock()
		s.setup(ep)
		ep.Start()
	}
}

// snapshot marks the server closed and returns the live endpoints.
func (s *Server) snapshot() []*Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	eps := make([]*Endpoint, 0, len(s.eps))
	for ep := range s.eps {
		eps = append(eps, ep)
	}
	return eps
}

// Shutdown drains the server: it stops accepting, waits for every
// in-flight handler on every endpoint to complete (bounded by ctx), then
// closes the endpoints. Blocked handlers must be unwedged by the caller
// first (e.g. failing queued lock waiters) or Shutdown falls back to a
// hard close when ctx fires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.listener.Close()
	eps := s.snapshot()
	s.waitDone() // the accept loop has exited; no new endpoints can appear
	var err error
	for _, ep := range eps {
		if e := ep.Drain(ctx); e != nil && err == nil {
			err = e
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	return err
}

// Close stops accepting and closes all live endpoints immediately,
// without draining.
func (s *Server) Close() {
	s.listener.Close()
	eps := s.snapshot()
	for _, ep := range eps {
		ep.Close()
	}
	s.waitDone()
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr() }
