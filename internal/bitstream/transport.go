package bitstream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
)

// Transport is the configuration interface of the device: it delivers
// partial bitstreams and performs readback, accounting every clock cycle and
// write word by traffic class. It owns everything the interfaces share — the
// background stream queue, stream encoding (plain or compressed) and the
// per-class counters — while a small Link supplies what differs: the cost of
// a burst and how its words reach the configuration logic (Boundary-Scan TAP
// stepping in internal/jtag, or a SelectMAP-style parallel port here).
//
// The contract the run-time manager builds its commit pipeline on:
//
//   - Stream enqueues a foreground burst and returns while it is still
//     shifting out; bursts are delivered strictly in enqueue order by one
//     lazily started worker that exits whenever the queue empties. The
//     burst's cost is a pure function of its word count and lands on the
//     counters at enqueue, so Elapsed reads the same value at every point of
//     the program however far the shift has progressed — pipelined and
//     serial delivery account identically.
//   - every frame of a streamed burst already holds, on the device, exactly
//     the content being streamed (write-through staging), so a streamed burst
//     is a re-delivery: the controller runs the full protocol but applies
//     nothing, which makes the background shift invisible to concurrent
//     host-side planning.
//   - Write and Read drain the queue before touching the configuration
//     logic, so streams, writing bursts and readbacks are strictly ordered by
//     construction; nothing else may feed the controller.
//
// A Transport is driven by one owner at a time (the run-time manager holds
// its lock around every call); only the queue itself is shared with the
// worker.
type Transport struct {
	ctrl     *Controller
	link     Link
	clockHz  float64
	compress bool
	hook     FaultHook
	counters Counters
	q        queue
}

// Link is the per-interface half of a Transport: the clock cost and the
// delivery of configuration words.
type Link interface {
	// Name identifies the interface for reports.
	Name() string
	// Reset brings the interface to its idle state and returns the clock
	// cycles that took (charged to the foreground class at construction).
	Reset() uint64
	// BurstCycles is the closed-form clock cost of an n-word write burst.
	BurstCycles(n int) uint64
	// Burst shifts one write burst into the configuration logic.
	Burst(words []uint32) error
	// Readback shifts a readback request in and n words out, returning the
	// words and the clock cycles the exchange took.
	Readback(req []uint32, n int) ([]uint32, uint64, error)
}

// FaultHook is the transport's fault-injection point (internal/faultport
// implements it). The transport consults it on every class but Recovery: a
// rollback or reconciliation restores the host's authoritative copy and must
// land.
type FaultHook interface {
	// Inject sees every write's update list before encoding and returns the
	// injected failure, if any. A faulted streamed burst still re-delivers
	// in full (its error is sticky until the next await); a faulted writing
	// burst still pays for its shift but applies nothing.
	Inject(updates []FrameUpdate) error
	// Stall is the wall-clock delay every harvest (AwaitWithin) suffers
	// before it can observe the queue — the hung-transport model a stall
	// watchdog bounds. It never changes accounting or delivered content.
	Stall() time.Duration
	// Corrupt filters one readback of addr.
	Corrupt(addr fabric.FrameAddr, words []uint32) []uint32
}

// Class is a traffic class of the transport's accounting. Foreground is the
// operations' own delivery — the paper's cost model; the maintenance classes
// are the fault-tolerance layer's re-deliveries, the scrubber, the health
// probes and recovery streams (rollbacks and journal reconciliation), kept
// apart so the foreground accounting of a faulted, scrubbed or recovered
// system stays bit-identical to a clean twin's.
type Class uint8

// The traffic classes, in counter order.
const (
	Foreground Class = iota
	Retry
	Scrub
	Probe
	Recovery
	NumClasses
)

var classNames = [NumClasses]string{"foreground", "retry", "scrub", "probe", "recovery"}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", c)
}

// ClassCounters is one traffic class's accounting: clock cycles (writes and
// readbacks) and write traffic. The JSON form is the journal's.
type ClassCounters struct {
	Cycles uint64 `json:"cycles,omitempty"`
	Traffic
}

// Counters is the transport's complete accounting, indexed by Class.
type Counters [NumClasses]ClassCounters

// ErrStalled is the typed cause of a harvest that did not complete within
// its deadline (see AwaitWithin).
var ErrStalled = errors.New("bitstream: configuration port stalled")

// NewTransport attaches a link to a controller, clocked at clockHz, and
// resets the link.
func NewTransport(ctrl *Controller, link Link, clockHz float64) *Transport {
	t := &Transport{ctrl: ctrl, link: link, clockHz: clockHz}
	t.counters[Foreground].Cycles = link.Reset()
	return t
}

// SelectMAP is the Link of a SelectMAP-style parallel configuration port:
// WidthBits data pins per clock (8, 16 or 32; 0 means 8), so one 32-bit word
// takes 32/WidthBits clocks.
type SelectMAP struct {
	Ctrl      *Controller
	WidthBits int
}

// NewSelectMAP builds a SelectMAP transport of the given data width.
func NewSelectMAP(ctrl *Controller, clockHz float64, widthBits int) *Transport {
	return NewTransport(ctrl, &SelectMAP{Ctrl: ctrl, WidthBits: widthBits}, clockHz)
}

func (p *SelectMAP) cyclesPerWord() uint64 {
	if p.WidthBits == 0 {
		return 4
	}
	return uint64(32 / p.WidthBits)
}

// Name implements Link.
func (p *SelectMAP) Name() string { return "SelectMAP" }

// Reset implements Link: a parallel port has no interface state to reset.
func (p *SelectMAP) Reset() uint64 { return 0 }

// BurstCycles implements Link.
func (p *SelectMAP) BurstCycles(n int) uint64 { return p.cyclesPerWord() * uint64(n) }

// Burst implements Link.
func (p *SelectMAP) Burst(words []uint32) error { return p.Ctrl.Feed(words...) }

// Readback implements Link.
func (p *SelectMAP) Readback(req []uint32, n int) ([]uint32, uint64, error) {
	out, err := p.Ctrl.ExecRead(req)
	if err != nil {
		return nil, 0, err
	}
	return out, p.cyclesPerWord() * uint64(len(req)+len(out)), nil
}

// Name identifies the interface for reports.
func (t *Transport) Name() string { return t.link.Name() }

// SetCompress switches delta/MFWR stream encoding on or off.
func (t *Transport) SetCompress(on bool) { t.compress = on }

// Compressed reports whether compressed encoding is on.
func (t *Transport) Compressed() bool { return t.compress }

// SetHook attaches a fault hook (nil detaches).
func (t *Transport) SetHook(h FaultHook) { t.hook = h }

// Stream encodes updates as one foreground burst and enqueues it for
// background re-delivery; its cost lands on the counters now. A fully elided
// burst (compression skipped every frame) still enqueues — zero words, zero
// cycles — so callers' CompletedBursts book-keeping stays in lockstep.
func (t *Transport) Stream(updates []FrameUpdate) {
	var fault error
	if t.hook != nil {
		fault = t.hook.Inject(updates)
	}
	t.q.push(burst{words: t.encode(Foreground, updates), err: fault}, t.redeliver)
}

// Write drains the queue, then delivers updates as one writing burst of
// class c before returning — the configuration logic applies every frame
// (unless the fault hook failed the write). A sticky error of the drained
// stream fails the write before it ships.
func (t *Transport) Write(c Class, updates []FrameUpdate) error {
	if err := t.Await(); err != nil {
		return err
	}
	var fault error
	if t.hook != nil && c != Recovery {
		fault = t.hook.Inject(updates)
	}
	if err := t.deliver(t.encode(c, updates), fault == nil); err != nil {
		return err
	}
	return fault
}

// Read drains the queue, then reads one frame back, charging class c.
func (t *Transport) Read(c Class, addr fabric.FrameAddr) ([]uint32, error) {
	if err := t.Await(); err != nil {
		return nil, err
	}
	fw := t.ctrl.Device().FrameWords()
	req := ReadFramesRequest(fw, FAR{Major: addr.Major, Minor: addr.Minor}, 1)
	out, cycles, err := t.link.Readback(req, fw)
	t.counters[c].Cycles += cycles
	if err != nil {
		return nil, err
	}
	if len(out) != fw {
		return nil, fmt.Errorf("bitstream: readback returned %d words", len(out))
	}
	if t.hook != nil && c != Recovery {
		out = t.hook.Corrupt(addr, out)
	}
	return out, nil
}

// Await blocks until every queued burst has shifted out and returns the
// first error any of them produced (the error is consumed: a later await
// starts clean).
func (t *Transport) Await() error { return t.q.await(0) }

// AwaitWithin is the harvest: Await after the fault hook's stall, giving up
// with ErrStalled (wrapped) once d has passed (d <= 0 waits indefinitely).
// A harvest that gives up leaves the queue shifting and its error sticky;
// the next await collects both.
func (t *Transport) AwaitWithin(d time.Duration) error {
	wait := d
	if t.hook != nil {
		if stall := t.hook.Stall(); stall > 0 {
			if d > 0 && stall >= d {
				time.Sleep(d)
				return stalled(d)
			}
			time.Sleep(stall)
			if d > 0 {
				wait = d - stall
			}
		}
	}
	if err := t.q.await(wait); err != errDeadline {
		return err
	}
	return stalled(d)
}

func stalled(d time.Duration) error {
	return fmt.Errorf("%w (no harvest within %v)", ErrStalled, d)
}

// CompletedBursts returns the number of streamed bursts fully delivered
// since the transport was built. Callers use it to retire frames from their
// in-flight tracking without a blocking await.
func (t *Transport) CompletedBursts() uint64 { return t.q.completed() }

// Elapsed returns the foreground transport time in seconds.
func (t *Transport) Elapsed() float64 { return t.Seconds(Foreground) }

// Cycles returns the foreground clock cycle count.
func (t *Transport) Cycles() uint64 { return t.counters[Foreground].Cycles }

// Traffic returns the foreground write-traffic counters.
func (t *Transport) Traffic() Traffic { return t.counters[Foreground].Traffic }

// Seconds returns the transport time class c consumed.
func (t *Transport) Seconds(c Class) float64 {
	return float64(t.counters[c].Cycles) / t.clockHz
}

// Counters returns a copy of the complete per-class accounting.
func (t *Transport) Counters() Counters { return t.counters }

// RestoreCounters overwrites the accounting — journal recovery restores a
// crashed system's counters so they survive the crash bit-identically.
func (t *Transport) RestoreCounters(c Counters) { t.counters = c }

// encode builds the stream for updates and charges it to class c.
func (t *Transport) encode(c Class, updates []FrameUpdate) []uint32 {
	cc := &t.counters[c]
	words := EncodeStream(t.ctrl.Device(), t.compress, updates, &cc.Traffic)
	if len(words) > 0 {
		cc.Cycles += t.link.BurstCycles(len(words))
	}
	return words
}

// deliver ships one burst through the link; write selects whether the
// configuration logic applies the frames or only re-delivers them.
func (t *Transport) deliver(words []uint32, write bool) error {
	if len(words) == 0 {
		return nil // elided burst: nothing was charged, nothing shifts
	}
	t.ctrl.SetRedelivery(!write)
	defer t.ctrl.SetRedelivery(false)
	return t.link.Burst(words)
}

// redeliver is the worker's delivery of one streamed burst.
func (t *Transport) redeliver(b burst) error {
	if err := t.deliver(b.words, false); err != nil {
		return err
	}
	return b.err
}

// burst is one queued stream: its words and the fault injected into it.
type burst struct {
	words []uint32
	err   error
}

// errDeadline is queue.await's timeout result.
var errDeadline = errors.New("deadline")

// queue is the background-delivery engine: a FIFO of bursts drained by one
// lazily started worker goroutine that exits whenever the queue empties, so
// an idle transport holds no goroutine. The first delivery error is sticky
// until the next await.
type queue struct {
	mu     sync.Mutex
	bursts []burst
	idle   chan struct{} // non-nil while the worker runs; closed when it parks
	done   uint64
	err    error
}

func (q *queue) push(b burst, deliver func(burst) error) {
	q.mu.Lock()
	q.bursts = append(q.bursts, b)
	if q.idle == nil {
		q.idle = make(chan struct{})
		go q.drain(deliver)
	}
	q.mu.Unlock()
}

func (q *queue) drain(deliver func(burst) error) {
	q.mu.Lock()
	for len(q.bursts) > 0 {
		b := q.bursts[0]
		q.bursts = q.bursts[1:]
		q.mu.Unlock()
		err := deliver(b)
		q.mu.Lock()
		q.done++
		if err != nil && q.err == nil {
			q.err = err
		}
	}
	close(q.idle)
	q.idle = nil
	q.mu.Unlock()
}

// await blocks until the worker parks — at most d when d > 0, returning
// errDeadline if it has not — then returns and clears the sticky error.
func (q *queue) await(d time.Duration) error {
	q.mu.Lock()
	idle := q.idle
	q.mu.Unlock()
	if idle != nil {
		if d <= 0 {
			<-idle
		} else {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-idle:
			case <-timer.C:
				return errDeadline
			}
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	err := q.err
	q.err = nil
	return err
}

func (q *queue) completed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done
}
