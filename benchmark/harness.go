package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runResult is what one pass of one workload measured.
type runResult struct {
	attempted, failed int64
	violations        []string // output-verification failures
	// e2e holds the end-to-end metrics of BENCHMARK.json; alias holds the
	// same measurements under their workload-specific names (join_ms_p50,
	// failover_outage_ms_p50, ...), for the result file and the README.
	e2e   map[string]float64
	alias map[string]float64
	// layer holds the per-layer figures read from the program's registries,
	// the pump and (traced pass only) the collector.
	layer map[string]float64
	// shape is what the layer walk needs to replay this workload's
	// dominant operations at the sizes the run actually had.
	shape walkShape

	ops      int64   // primary operations behind the *_per_op figures
	wallS    float64 // wall seconds of the measured phase
	cpuS     float64 // process CPU seconds of the measured phase
	virtualS float64 // fake-clock seconds of the measured phase, 0 on the real clock
	// allocBytes is the heap the process allocated during the measured
	// phase; cpuMsPerOp is derived by finishE2E.
	allocBytes float64
	cpuMsPerOp float64
	setupS     []float64
	waitsMs    []float64
	// chunks cut the measured phase into consecutive pieces; throughput
	// and CPU per operation are reported as medians over them, so a
	// stretch of interference from the host moves one piece, not the run.
	chunks []chunk
}

type chunk struct{ ops, wallS, cpuS float64 }

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, alias: map[string]float64{}, layer: map[string]float64{}}
}

func (r *runResult) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// finishE2E derives the end-to-end metrics every workload shares from the
// measured phase's totals.
func (r *runResult) finishE2E(wireBytes int64, liveBytesPerMember float64) {
	ops := float64(r.ops)
	r.e2e["setup_s"] = median(r.setupS)
	r.e2e["ops_per_wall_s"] = ops / r.wallS
	r.e2e["alloc_bytes_per_op"] = r.allocBytes / ops
	// CPU per operation is printed and kept as a per-layer figure but is
	// not an end-to-end metric: see README, "Expected run-to-run noise".
	r.cpuMsPerOp = r.cpuS * 1e3 / ops
	if len(r.chunks) >= minChunks {
		var rate, cpu []float64
		for _, c := range r.chunks {
			rate = append(rate, c.ops/c.wallS)
			cpu = append(cpu, c.cpuS*1e3/c.ops)
		}
		r.e2e["ops_per_wall_s"], r.cpuMsPerOp = median(rate), median(cpu)
	}
	r.alias["cpu_ms_per_op"] = r.cpuMsPerOp
	r.e2e["wire_bytes_per_op"] = float64(wireBytes) / ops
	r.e2e["live_bytes_per_member"] = liveBytesPerMember
	r.e2e["wait_ms_p50"] = percentile(r.waitsMs, 0.50)
	r.e2e["wait_ms_p95"] = percentile(r.waitsMs, 0.95)
}

// walkShape parameterises the layer walk.
type walkShape struct {
	pool     *keyPool // the run's own seeded keys, at the run's key size
	suite    string
	areaSize int
	// joinsPerRekey and leavesPerRekey are the mean batch a controller
	// flush carried in the run.
	joinsPerRekey, leavesPerRekey float64
	journalDir                    string // a controller's journal directory, "" when unjournaled
	fsync                         string
}

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveBytes is the heap and goroutine-stack memory still reachable after
// two collections (the second frees what finalizers of the first released).
func liveBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc + ms.StackInuse)
}

// minChunks is the fewest pieces a median is taken over; a run too short
// to have them (the smoke test) reports plain totals.
const minChunks = 5

// chunker cuts a measured phase into chunks at the caller's marks.
type chunker struct {
	r    *runResult
	t    time.Time
	cpu  time.Duration
	done int64
}

func startChunks(r *runResult) *chunker {
	return &chunker{r: r, t: time.Now(), cpu: processCPU()}
}

// mark closes the chunk that ends now, with `done` operations complete so
// far in the phase. A mark with no new operations is skipped.
func (c *chunker) mark(done int64) {
	if done <= c.done {
		return
	}
	now, cpu := time.Now(), processCPU()
	c.r.chunks = append(c.r.chunks, chunk{float64(done - c.done), now.Sub(c.t).Seconds(), (cpu - c.cpu).Seconds()})
	c.t, c.cpu, c.done = now, cpu, done
}

// totalAlloc is the cumulative bytes of heap the process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// meter brackets a measured phase.
type meter struct {
	d      *deployment
	p      *pump
	t0     time.Time
	cpu0   time.Duration
	v0     time.Duration
	alloc0 uint64
	before map[string]float64
}

func startMeter(d *deployment, p *pump) meter {
	d.opts.trace.arm(true)
	return meter{d: d, p: p, before: counters(d, p), v0: d.virtualElapsed(), alloc0: totalAlloc(), cpu0: processCPU(), t0: time.Now()}
}

// stop adds the phase's wall, CPU, virtual-time and per-layer totals to r
// and returns the bytes the network accepted during it.
func (m meter) stop(r *runResult) int64 {
	m.d.opts.trace.arm(false)
	r.wallS += time.Since(m.t0).Seconds()
	r.cpuS += (processCPU() - m.cpu0).Seconds()
	r.virtualS += (m.d.virtualElapsed() - m.v0).Seconds()
	r.allocBytes += float64(totalAlloc() - m.alloc0)
	after := counters(m.d, m.p)
	r.addLayers(m.d, m.before, after)
	return int64(after["_sent_bytes"] - m.before["_sent_bytes"])
}

// waitFor polls cond every step until it holds or the wall deadline passes.
func waitFor(max, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(max)
	for !cond() {
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(step)
	}
	return true
}

// awaitTree waits for the controller tree to assemble; a virtual-time
// deployment needs its pump running for that.
func awaitTree(d *deployment) error {
	if !waitFor(30*time.Second, time.Millisecond, d.treeAssembled) {
		return fmt.Errorf("controller tree did not assemble")
	}
	return nil
}

// pickDistinct draws k distinct indexes below n.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// ---- virtual time ----

// Virtual-time protocol timing, as E14: members report every 30 s of
// silence and controllers evict after 75 s, so a live member is never at
// risk; the batching interval is the paper's §III-E rekey period.
const (
	vtTIdle     = 30 * time.Second
	vtTActive   = 15 * time.Second
	vtRekeyTick = 250 * time.Millisecond
	vtLatency   = time.Millisecond
	vtOpTimeout = 30 * time.Minute
	// pumpSettle is how long the pump watches for fresh traffic before it
	// calls the system quiescent. Fixed at E14's careful value: it must
	// exceed the longest silent computation between receiving a frame and
	// emitting the next, or virtual time sweeps across work that a real
	// deployment would spend computing.
	pumpSettle = 20 * time.Millisecond
)

// pump is the only writer of virtual time: E14's quiescence-gated clock
// pump. It chases the network's next delivery deadline while traffic is in
// flight, and once nothing is queued, nothing sits in a mailbox or decode
// buffer, no frame was sent across a settle window and the scheduler woke
// it on time, it sweeps the clock to the next timer.
type pump struct {
	d        *deployment
	stopCh   chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	settleS  float64 // wall seconds spent in settle sleeps
	advances int64   // clock advances made
}

func startPump(d *deployment) *pump {
	p := &pump{d: d, stopCh: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *pump) quiescent() bool {
	d := p.d
	if _, ok := d.netNextDue(); ok {
		return false
	}
	s0 := d.netSentMsgs()
	t0 := time.Now()
	time.Sleep(pumpSettle)
	slept := time.Since(t0)
	p.mu.Lock()
	p.settleS += slept.Seconds()
	p.mu.Unlock()
	if slept > pumpSettle+pumpSettle/2 {
		return false // woken late: runnable goroutines are competing for the CPU
	}
	if _, ok := d.netNextDue(); ok {
		return false
	}
	return !d.netBusy() && d.netSentMsgs() == s0
}

func (p *pump) advance(by time.Duration) {
	p.d.clockAdvance(by)
	p.mu.Lock()
	p.advances++
	p.mu.Unlock()
	time.Sleep(20 * time.Microsecond)
}

func (p *pump) run() {
	defer close(p.done)
	const chunk = vtRekeyTick / 5
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		if due, ok := p.d.netNextDue(); ok {
			if by := due.Sub(p.d.clockNow()); by > 0 {
				p.advance(by)
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		if !p.quiescent() {
			continue
		}
		dl, ok := p.d.clockNextDeadline()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		// Jump straight to far-off deadlines; sweep in chunks when timers
		// are dense so one advance batches many firings.
		by := dl.Sub(p.d.clockNow())
		if by < chunk {
			by = chunk
		}
		p.advance(by)
	}
}

// stop halts the pump and waits for it.
func (p *pump) stop() {
	close(p.stopCh)
	<-p.done
}

func (p *pump) stats() (settleS float64, advances int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.settleS, p.advances
}

// virtualOpts is the deployment both virtual-time workloads share.
func virtualOpts(pool *keyPool, seed int64, areas int, tc *traceCollector) deployOpts {
	return deployOpts{
		pool: pool, seed: seed, areas: areas, batching: true, virtual: true, latency: vtLatency,
		tIdle: vtTIdle, tActive: vtTActive, rekeyInterval: vtRekeyTick,
		// Housekeeping runs at min(TIdle, HeartbeatEvery)/2; a short
		// heartbeat keeps the flush cadence at the rekey interval.
		heartbeat: 2 * vtRekeyTick, opTimeout: vtOpTimeout, trace: tc,
	}
}

// joinAll joins the given members through `clients` closed-loop simulated
// clients and returns each join's wall latency in milliseconds. A failed
// join is counted and the member left out of the returned set.
func joinAll(d *deployment, ids []string, clients int, onData func() func([]byte, string), progress func(done int64)) (joined []*sutMember, waitsMs []float64, failed int64, firstErr error) {
	type out struct {
		m   *sutMember
		ms  float64
		err error
	}
	idc := make(chan string)
	outc := make(chan out, clients) // one slot per client so none blocks while the feeder drains
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range idc {
				var cb func([]byte, string)
				if onData != nil {
					cb = onData()
				}
				t0 := time.Now()
				m, err := d.newMember(id, cb)
				if err == nil {
					err = m.Join()
				}
				el := ms(time.Since(t0))
				if tc := d.opts.trace; err == nil && tc != nil {
					tc.observeDone("join", id, d.now())
				}
				outc <- out{m, el, err}
			}
		}()
	}
	go func() {
		for _, id := range ids {
			idc <- id
		}
		close(idc)
		wg.Wait()
		close(outc)
	}()
	for o := range outc {
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		joined = append(joined, o.m)
		waitsMs = append(waitsMs, o.ms)
		if progress != nil {
			progress(int64(len(joined)))
		}
	}
	sort.Slice(joined, func(i, j int) bool { return joined[i].id < joined[j].id })
	return joined, waitsMs, failed, firstErr
}

// verifyMembership checks the end-of-phase invariants: every member sits
// at its controller's epoch, the controllers' member counts sum to the
// population (child controllers are members of their parent's area), and
// the network dropped nothing.
func verifyMembership(d *deployment, members []*sutMember, r *runResult) {
	n := d.numAreas()
	epochs := make(map[string]uint64, n)
	converged := waitFor(20*time.Second, 5*time.Millisecond, func() bool {
		for i := 0; i < n; i++ {
			st := d.controllerState(i)
			epochs[st.id] = st.epoch
		}
		for _, m := range members {
			if m.Epoch() != epochs[m.ControllerID()] {
				return false
			}
		}
		return true
	})
	if !converged {
		stale := 0
		for _, m := range members {
			if m.Epoch() != epochs[m.ControllerID()] {
				stale++
			}
		}
		r.violatef("%d of %d members are not at their controller's epoch", stale, len(members))
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += d.controllerState(i).members
	}
	if want := len(members) + n - 1; sum != want {
		r.violatef("controllers hold %d members, want %d (%d members + %d child controllers)", sum, want, len(members), n-1)
	}
	if dropped := d.netCounters().dropped; dropped != 0 {
		r.violatef("network dropped %d frames", dropped)
	}
}

// counters reads every additive counter the per-layer figures are built
// from: the program's own registries and, for virtual deployments, the
// pump. Keys starting with "_" are intermediate and never reported.
func counters(d *deployment, p *pump) map[string]float64 {
	ac := d.areaCounters()
	nc := d.nodeCounters()
	net := d.netCounters()
	c := map[string]float64{
		"area.rekeys":         float64(ac.rekeys),
		"area.rekey_entries":  float64(ac.rekeyEntries),
		"area.data_relayed":   float64(ac.dataRelayed),
		"area.data_forwarded": float64(ac.dataForwarded),
		"area.verify_reqs":    float64(ac.verifyReqs),
		"_admissions":         float64(ac.joins + ac.rejoins),
		"_leaves":             float64(ac.leaves),
		"_repl_bytes":         float64(ac.replBytes),
		"regserver.joins":     float64(d.rsJoins()),
		"node.frames":         float64(nc.frames),
		"node.commands":       float64(nc.commands),
		"node.ticks":          float64(nc.ticks),
		"node.drops":          float64(nc.drops),
		"simnet.sent_msgs":    float64(net.sentMsgs),
		"simnet.dropped_msgs": float64(net.dropped),
		"_sent_bytes":         float64(net.sentBytes),
	}
	if p != nil {
		s, a := p.stats()
		c["clock.pump_settle_s"], c["clock.pump_advances"] = s, float64(a)
	}
	return c
}

// addLayers adds the counters a measured phase moved (after minus before)
// to the run's per-layer figures, and the deployment's non-additive ones.
func (r *runResult) addLayers(d *deployment, before, after map[string]float64) {
	for k, v := range after {
		r.layer[k] += v - before[k]
	}
	// Controllers time rekeys, and members their handshakes, on the
	// injected clock; these are whole-deployment figures.
	if q := d.areaCounters().rekeyMsP50; q > r.layer["area.rekey_ms_p50"] {
		r.layer["area.rekey_ms_p50"] = q
	}
	r.layer["member.join_virtual_ms_mean"], r.layer["member.rejoin_virtual_ms_mean"] = d.handshakeMeansMs()
	r.layer["core.build_s"] = d.buildS
}

// finishLayers derives the per-operation ratios once every measured phase
// has been added.
func (r *runResult) finishLayers() {
	L, ops := r.layer, float64(r.ops)
	rekeys := L["area.rekeys"]
	r.shape.joinsPerRekey, r.shape.leavesPerRekey = 1, 0
	if rekeys > 0 {
		L["keytree.entries_per_rekey"] = L["area.rekey_entries"] / rekeys
		r.shape.joinsPerRekey = L["_admissions"] / rekeys
		r.shape.leavesPerRekey = L["_leaves"] / rekeys
	}
	L["keytree.rekeys_per_op"] = rekeys / ops
	L["replica.replication_bytes_per_op"] = L["_repl_bytes"] / ops
	L["wire.frames_per_op"] = L["simnet.sent_msgs"] / ops
	if n := L["simnet.sent_msgs"]; n > 0 {
		L["wire.bytes_per_frame"] = L["_sent_bytes"] / n
	}
	// A real-clock deployment's clock is the wall clock: one wall second
	// per clock second by construction.
	L["simnet.virtual_s"], L["simnet.wall_s_per_virtual_s"] = r.wallS, 1
	if r.virtualS > 0 {
		L["simnet.virtual_s"], L["simnet.wall_s_per_virtual_s"] = r.virtualS, r.wallS/r.virtualS
	}
	for k := range L {
		if k[0] == '_' {
			delete(L, k)
		}
	}
}
