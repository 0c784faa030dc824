package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// runConfig is what main hands a workload for one pass.
type runConfig struct {
	seed int64
	// scale multiplies every operation count: seconds/10 for a full run,
	// less for the two shorter passes of a traced run.
	scale float64
	// toy shrinks populations for the smoke test.
	toy bool
	// repeatSetup makes the workload build its set-up several times (each
	// workload knows how many it can afford); setup_s is the median, and
	// the measured phase runs on the last build, the one made from seed.
	repeatSetup bool
	// tc, when set, makes this the traced pass.
	tc *traceCollector
	// tmp is a scratch directory inside the benchmark's output directory.
	tmp string
}

// setupSeeds returns the seed of each set-up build: n of them when set-ups
// repeat, the last always the run's own seed. Key generation time depends
// on the seed's luck in the prime search, so the earlier builds draw
// other seeds and the median is over independent draws.
func (c runConfig) setupSeeds(n int) []int64 {
	if !c.repeatSetup {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = c.seed + int64(n-1-i)*1_000_003
	}
	return seeds
}

func (c runConfig) scaled(base, floor int) int {
	n := int(float64(base)*c.scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// virtualRig is a virtual-time deployment with its pump running.
type virtualRig struct {
	d *deployment
	p *pump
}

func (v *virtualRig) close() {
	v.p.stop()
	v.d.Close()
}

// buildVirtual stands up RS + areas under the pump and waits for the
// controller tree to assemble.
func buildVirtual(c runConfig, seed int64, areas int) (*virtualRig, error) {
	pool, err := newKeyPool(32, 512, seed)
	if err != nil {
		return nil, err
	}
	d, err := deploy(virtualOpts(pool, seed, areas, c.tc))
	if err != nil {
		return nil, err
	}
	v := &virtualRig{d: d, p: startPump(d)}
	if err := awaitTree(d); err != nil {
		v.close()
		return nil, err
	}
	return v, nil
}

func memberIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s%06d", prefix, i)
	}
	return ids
}

// runJoinStorm is the E14 deployment shape: a population joins two areas
// through closed-loop clients under virtual time with batching on.
func runJoinStorm(c runConfig) (*runResult, error) {
	members, clients := c.scaled(6000, 256), 128
	if c.toy {
		members, clients = 160, 16
	}
	r := newRunResult()
	r.shape = walkShape{areaSize: members / 2}

	var rig *virtualRig
	var base int64
	for _, seed := range c.setupSeeds(5) {
		if rig != nil {
			rig.close()
		}
		base = liveBytes()
		t0 := time.Now()
		var err error
		if rig, err = buildVirtual(c, seed, 2); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer rig.close()
	d := rig.d
	r.shape.pool = d.opts.pool

	m := startMeter(d, rig.p)
	ch := startChunks(r)
	every := int64(members / 20)
	joined, waits, failed, err := joinAll(d, memberIDs("m", members), clients, nil, func(done int64) {
		if done%every == 0 {
			ch.mark(done)
		}
	})
	wire := m.stop(r)
	if err != nil && len(joined) == 0 {
		return nil, fmt.Errorf("join_storm: %w", err)
	}
	r.attempted, r.failed, r.ops, r.waitsMs = int64(members), failed, int64(len(joined)), waits

	verifyMembership(d, joined, r)
	live := float64(liveBytes()-base) / float64(len(joined))
	r.finishE2E(wire, live)
	return r, nil
}

// runMobilityChurn is the paper's headline scenario: residents of two
// areas leave and ticket-rejoin the other area, round after round.
func runMobilityChurn(c runConfig) (*runResult, error) {
	residents, clients, rounds, perArea := 2000, 128, c.scaled(45, 2), 16
	if c.toy {
		residents, clients, rounds, perArea = 120, 16, 2, 4
	}
	r := newRunResult()
	r.shape = walkShape{areaSize: residents / 2}

	var rig *virtualRig
	var all []*sutMember
	var base int64
	for _, seed := range c.setupSeeds(3) {
		if rig != nil {
			rig.close()
		}
		base = liveBytes()
		t0 := time.Now()
		var err error
		if rig, err = buildVirtual(c, seed, 2); err != nil {
			return nil, err
		}
		var failed int64
		all, _, failed, err = joinAll(rig.d, memberIDs("m", residents), clients, nil, nil)
		if failed > 0 {
			rig.close()
			return nil, fmt.Errorf("mobility_churn set-up: %d joins failed: %w", failed, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer rig.close()
	d := rig.d
	r.shape.pool = d.opts.pool

	// Residents by area, in ID order so the seeded choice below is a
	// function of the seed and the area assignment alone.
	acs := []string{d.controllerID(0), d.controllerID(1)}
	byArea := make([][]*sutMember, 2)
	for _, mb := range all {
		a := 0
		if mb.ControllerID() == acs[1] {
			a = 1
		}
		byArea[a] = append(byArea[a], mb)
	}
	rng := rand.New(rand.NewSource(c.seed))

	m := startMeter(d, rig.p)
	ch := startChunks(r)
	var mu sync.Mutex
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		moved := make([][]*sutMember, 2)
		for a := 0; a < 2; a++ {
			for _, idx := range pickDistinct(rng, len(byArea[a]), perArea) {
				moved[a] = append(moved[a], byArea[a][idx])
			}
		}
		for a := 0; a < 2; a++ {
			for _, mb := range moved[a] {
				wg.Add(1)
				go func(mb *sutMember, target string) {
					defer wg.Done()
					t0 := time.Now()
					err := mb.Leave()
					if err == nil {
						err = mb.Rejoin(target)
					}
					el := ms(time.Since(t0))
					if err == nil && c.tc != nil {
						c.tc.observeDone("rejoin", mb.id, d.now())
					}
					mu.Lock()
					r.attempted++
					if err != nil {
						r.failed++
						r.violatef("move of %s to %s: %v", mb.id, target, err)
					} else {
						r.ops++
						r.waitsMs = append(r.waitsMs, el)
					}
					mu.Unlock()
				}(mb, acs[1-a])
			}
		}
		wg.Wait()
		for a := 0; a < 2; a++ {
			gone := make(map[*sutMember]bool, len(moved[a]))
			for _, mb := range moved[a] {
				gone[mb] = true
			}
			kept := byArea[a][:0]
			for _, mb := range byArea[a] {
				if !gone[mb] {
					kept = append(kept, mb)
				}
			}
			byArea[a] = kept
		}
		for a := 0; a < 2; a++ {
			byArea[1-a] = append(byArea[1-a], moved[a]...)
		}
		ch.mark(r.ops)
	}
	wire := m.stop(r)
	if r.ops == 0 {
		return nil, fmt.Errorf("mobility_churn: no move succeeded: %v", r.violations)
	}

	verifyMembership(d, all, r)
	live := float64(liveBytes()-base) / float64(len(all))
	r.finishE2E(wire, live)
	return r, nil
}
