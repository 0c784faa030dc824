package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// areaOf maps each member to the index of the area it currently sits in.
func areaOf(d *deployment, members []*sutMember) [][]*sutMember {
	idx := make(map[string]int)
	for i := 0; i < d.numAreas(); i++ {
		idx[d.controllerID(i)] = i
	}
	out := make([][]*sutMember, d.numAreas())
	for _, m := range members {
		a := idx[m.ControllerID()]
		out[a] = append(out[a], m)
	}
	return out
}

// atEpoch reports whether every given member holds at least the epoch.
func atEpoch(members []*sutMember, epoch uint64) bool {
	for _, m := range members {
		if m.Epoch() < epoch {
			return false
		}
	}
	return true
}

// runHandshakeLatency is §V-D / E7: what one mobile user waits for. One
// sequential client joins, leaves (timing the rekey fan-out to sampled
// residents), ticket-rejoins the other area and leaves again, uncontended,
// on the real clock with RSA-2048.
func runHandshakeLatency(c runConfig) (*runResult, error) {
	perArea, sampled, sessions, bits, poolSize := 64, 8, c.scaled(150, 3), 2048, 8
	if c.toy {
		perArea, sampled, sessions, bits, poolSize = 8, 3, 3, 1024, 4
	}
	r := newRunResult()
	r.shape = walkShape{areaSize: perArea}

	var d *deployment
	var residents []*sutMember
	var base int64
	for _, seed := range c.setupSeeds(3) {
		if d != nil {
			d.Close()
		}
		base = liveBytes()
		t0 := time.Now()
		pool, err := newKeyPool(poolSize, bits, seed)
		if err != nil {
			return nil, err
		}
		d, err = deploy(deployOpts{
			pool: pool, seed: seed, areas: 2, latency: 2 * time.Millisecond,
			tIdle: 2 * time.Second, tActive: 10 * time.Second, rekeyInterval: 30 * time.Second,
			opTimeout: 30 * time.Second, trace: c.tc,
		})
		if err != nil {
			return nil, err
		}
		if err := awaitTree(d); err != nil {
			d.Close()
			return nil, err
		}
		var failed int64
		residents, _, failed, err = joinAll(d, memberIDs("r", 2*perArea), 8, nil, nil)
		if failed > 0 {
			d.Close()
			return nil, fmt.Errorf("handshake_latency set-up: %d joins failed: %w", failed, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer d.Close()
	r.shape.pool = d.opts.pool

	// A seeded sample of residents per area stands for "the last member to
	// hold the new key".
	rng := rand.New(rand.NewSource(c.seed))
	byArea := areaOf(d, residents)
	watch := make([][]*sutMember, 2)
	for a := range watch {
		for _, i := range pickDistinct(rng, len(byArea[a]), sampled) {
			watch[a] = append(watch[a], byArea[a][i])
		}
	}
	acs := []string{d.controllerID(0), d.controllerID(1)}
	settle := func(a int) bool {
		return waitFor(10*time.Second, 200*time.Microsecond, func() bool {
			return atEpoch(watch[a], d.controllerState(a).epoch)
		})
	}
	if !settle(0) || !settle(1) {
		return nil, fmt.Errorf("handshake_latency: residents did not converge after set-up")
	}

	// leaveAndWait times a Leave() to the last sampled resident of area a
	// holding the rekey it causes. Batching is off: one leave, one epoch.
	leaveAndWait := func(mb *sutMember, a int) (float64, error) {
		target := d.controllerState(a).epoch + 1
		t0 := time.Now()
		if err := mb.Leave(); err != nil {
			return 0, fmt.Errorf("leave: %w", err)
		}
		if !waitFor(10*time.Second, 50*time.Microsecond, func() bool { return atEpoch(watch[a], target) }) {
			return 0, fmt.Errorf("leave rekey did not reach the sampled residents of area %d", a)
		}
		return ms(time.Since(t0)), nil
	}

	var joinMs, rejoinMs, fanoutMs []float64
	var departed *sutMember // retired one session late, so nothing is in flight to it
	m := startMeter(d, nil)
	ch := startChunks(r)
	for s := 0; s < sessions; s++ {
		r.attempted++
		id := fmt.Sprintf("s%05d", s)
		err := func() error {
			mb, err := d.newMember(id, nil)
			if err != nil {
				return err
			}
			defer func() {
				if departed != nil {
					departed.Retire()
				}
				departed = mb
			}()
			t0 := time.Now()
			if err := mb.Join(); err != nil {
				return fmt.Errorf("join: %w", err)
			}
			jm := ms(time.Since(t0))
			if c.tc != nil {
				c.tc.observeDone("join", id, d.now())
			}
			a := 0
			if mb.ControllerID() == acs[1] {
				a = 1
			}
			if !settle(a) {
				return fmt.Errorf("area %d did not settle after the join", a)
			}
			fm, err := leaveAndWait(mb, a)
			if err != nil {
				return err
			}
			t2 := time.Now()
			if err := mb.Rejoin(acs[1-a]); err != nil {
				return fmt.Errorf("rejoin: %w", err)
			}
			rm := ms(time.Since(t2))
			if c.tc != nil {
				c.tc.observeDone("rejoin", id, d.now())
			}
			if !settle(1 - a) {
				return fmt.Errorf("area %d did not settle after the rejoin", 1-a)
			}
			if _, err := leaveAndWait(mb, 1-a); err != nil {
				return fmt.Errorf("second %w", err)
			}
			joinMs, fanoutMs, rejoinMs = append(joinMs, jm), append(fanoutMs, fm), append(rejoinMs, rm)
			r.waitsMs = append(r.waitsMs, jm+fm+rm)
			return nil
		}()
		if err != nil {
			r.failed++
			r.violatef("session %s: %v", id, err)
			continue
		}
		r.ops++
		if r.ops%10 == 0 {
			ch.mark(r.ops)
		}
	}
	wire := m.stop(r)
	if r.ops == 0 {
		return nil, fmt.Errorf("handshake_latency: no session succeeded: %v", r.violations)
	}

	verifyMembership(d, residents, r)
	live := float64(liveBytes()-base) / float64(len(residents))
	r.finishE2E(wire, live)
	r.alias["join_ms_p50"], r.alias["join_ms_p95"] = percentile(joinMs, 0.5), percentile(joinMs, 0.95)
	r.alias["rejoin_ms_p50"], r.alias["rejoin_ms_p95"] = percentile(rejoinMs, 0.5), percentile(rejoinMs, 0.95)
	r.alias["rekey_fanout_ms_p50"] = percentile(fanoutMs, 0.5)
	return r, nil
}

// relayState is the shared bookkeeping of data_relay's receivers.
type relayState struct {
	base      time.Time
	checksums []uint32
	sentAt    []atomic.Int64  // nanoseconds since base
	remaining []atomic.Int32  // receivers still owed each packet
	doneAt    []atomic.Int64  // when the last receiver got it
	slots     []chan struct{} // per sender; packet i belongs to sender i % len(slots)
	bad       atomic.Int64
	dups      atomic.Int64
	delivered atomic.Int64
}

// receiver returns one member's OnData callback. It runs on that member's
// loop only, so its seen-set needs no lock.
func (st *relayState) receiver() func([]byte, string) {
	seen := make([]bool, len(st.checksums))
	return func(payload []byte, _ string) {
		if len(payload) < 4 {
			st.bad.Add(1)
			return
		}
		id := int(binary.BigEndian.Uint32(payload))
		if id >= len(seen) || crc32.ChecksumIEEE(payload) != st.checksums[id] {
			st.bad.Add(1)
			return
		}
		if seen[id] {
			st.dups.Add(1)
			return
		}
		seen[id] = true
		st.delivered.Add(1)
		if st.remaining[id].Add(-1) == 0 {
			st.doneAt[id].Store(int64(time.Since(st.base)))
			st.slots[id%len(st.slots)] <- struct{}{}
		}
	}
}

// runDataRelay is the data plane (Fig. 2): two senders in different child
// areas keep a window of 1 KiB packets in flight across the Iolus-style
// reseal hops of a three-area tree.
func runDataRelay(c runConfig) (*runResult, error) {
	perArea, packets, window, payloadLen := 50, c.scaled(15000, 64), 16, 1024
	if c.toy {
		perArea, packets, window = 10, 64, 4
	}
	const areas, senders = 3, 2
	population := areas * perArea
	r := newRunResult()
	r.shape = walkShape{suite: "aes-gcm", areaSize: perArea}

	// Inputs: every payload is seeded bytes behind its packet number.
	rng := rand.New(rand.NewSource(c.seed))
	st := &relayState{
		checksums: make([]uint32, packets), sentAt: make([]atomic.Int64, packets),
		remaining: make([]atomic.Int32, packets), doneAt: make([]atomic.Int64, packets),
	}
	payloads := make([][]byte, packets)
	for i := range payloads {
		p := make([]byte, payloadLen)
		rng.Read(p)
		binary.BigEndian.PutUint32(p, uint32(i))
		payloads[i] = p
		st.checksums[i] = crc32.ChecksumIEEE(p)
		st.remaining[i].Store(int32(population - 1))
	}
	for s := 0; s < senders; s++ {
		// One slot per packet in the window: a receiver's completion
		// signal never blocks its loop.
		st.slots = append(st.slots, make(chan struct{}, window))
	}

	var d *deployment
	var members []*sutMember
	var base int64
	for _, seed := range c.setupSeeds(5) {
		if d != nil {
			d.Close()
		}
		base = liveBytes()
		t0 := time.Now()
		pool, err := newKeyPool(16, 1024, seed)
		if err != nil {
			return nil, err
		}
		d, err = deploy(deployOpts{
			pool: pool, seed: seed, areas: areas, suite: "aes-gcm", latency: time.Millisecond,
			tIdle: 2 * time.Second, tActive: 10 * time.Second, rekeyInterval: 30 * time.Second,
			opTimeout: 30 * time.Second, trace: c.tc,
		})
		if err != nil {
			return nil, err
		}
		if err := awaitTree(d); err != nil {
			d.Close()
			return nil, err
		}
		var failed int64
		members, _, failed, err = joinAll(d, memberIDs("d", population), 8, st.receiver, nil)
		if failed > 0 {
			d.Close()
			return nil, fmt.Errorf("data_relay set-up: %d joins failed: %w", failed, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer d.Close()
	r.shape.pool = d.opts.pool
	verifyMembership(d, members, r) // also waits for every view to reach its area's epoch

	// One seeded sender in each child area.
	byArea := areaOf(d, members)
	var from []*sutMember
	for a := 1; a <= senders; a++ {
		if len(byArea[a]) == 0 {
			return nil, fmt.Errorf("data_relay: area %d has no members", a)
		}
		from = append(from, byArea[a][rng.Intn(len(byArea[a]))])
	}

	st.base = time.Now()
	m := startMeter(d, nil)
	ch := startChunks(r)
	sampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				ch.mark(st.delivered.Load())
			case <-sampling:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var sendErrs atomic.Int64
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			inFlight := 0
			for i := s; i < packets; i += senders {
				for inFlight == window {
					select {
					case <-st.slots[s]:
						inFlight--
					case <-time.After(5 * time.Second):
						sendErrs.Add(1)
						return // a packet was lost; the tally below reports it
					}
				}
				st.sentAt[i].Store(int64(time.Since(st.base)))
				if err := from[s].Send(payloads[i]); err != nil {
					sendErrs.Add(1)
					return
				}
				inFlight++
			}
			for ; inFlight > 0; inFlight-- {
				select {
				case <-st.slots[s]:
				case <-time.After(5 * time.Second):
					sendErrs.Add(1)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(sampling)
	sampler.Wait()
	wire := m.stop(r)

	r.attempted = int64(packets) * int64(population-1)
	r.ops = st.delivered.Load()
	r.failed = r.attempted - r.ops
	for i := 0; i < packets; i++ {
		if st.remaining[i].Load() == 0 {
			r.waitsMs = append(r.waitsMs, float64(st.doneAt[i].Load()-st.sentAt[i].Load())/1e6)
		}
	}
	if r.failed != 0 || st.bad.Load() != 0 || st.dups.Load() != 0 || sendErrs.Load() != 0 {
		r.violatef("data_relay: %d of %d deliveries missing, %d bad checksums, %d duplicates, %d sender errors",
			r.failed, r.attempted, st.bad.Load(), st.dups.Load(), sendErrs.Load())
	}
	if r.ops == 0 {
		return nil, fmt.Errorf("data_relay: nothing delivered")
	}
	if dropped := d.netCounters().dropped; dropped != 0 {
		r.violatef("network dropped %d frames", dropped)
	}
	live := float64(liveBytes()-base) / float64(population)
	r.finishE2E(wire, live)
	r.alias["data_deliveries_per_s"] = r.e2e["ops_per_wall_s"]
	r.alias["data_latency_ms_p50"] = r.e2e["wait_ms_p50"]
	r.alias["data_latency_ms_p99"] = percentile(r.waitsMs, 0.99)
	return r, nil
}
