package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mykil/internal/area"
	"mykil/internal/member"
)

// TestSoakFiveAreasFortyMembers is the long-haul integration test: a
// five-area tree, forty members, sustained churn, roaming, and traffic.
// It verifies the steady-state properties the paper promises for large
// dynamic groups: membership stays consistent, every attached member
// tracks its controller's epoch, and multicast reaches all areas.
func TestSoakFiveAreasFortyMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	const population = 40
	g, err := New(append(fastTiming(5), WithPolicy(area.AdmitOnPartition))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if err := g.WarmMemberKeys(population + 20); err != nil {
		t.Fatalf("WarmMemberKeys: %v", err)
	}
	waitFor(t, "area tree assembly", 10*time.Second, func() bool {
		for i := 1; i < 5; i++ {
			if g.Controller(i).ParentID() == "" {
				return false
			}
		}
		return true
	})

	recv := make([]*collector, population)
	members := make([]*member.Member, population)
	ids := make([]string, population)
	for i := 0; i < population; i++ {
		recv[i] = &collector{}
		ids[i] = fmt.Sprintf("s%d", i)
		m, err := g.AddMember(ids[i], MemberConfig{
			AutoRejoin: true,
			OnData:     recv[i].onData,
		})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}

	// Sustained churn: leaves, re-registrations, ticket moves, traffic.
	rng := rand.New(rand.NewSource(11))
	next := population
	for round := 0; round < 15; round++ {
		switch rng.Intn(3) {
		case 0: // a member leaves for good; a new subscriber registers
			idx := rng.Intn(len(members))
			if err := members[idx].Leave(); err != nil {
				t.Fatalf("round %d leave: %v", round, err)
			}
			members[idx].Close()
			recv[idx] = &collector{}
			ids[idx] = fmt.Sprintf("s%d", next)
			m, err := g.AddMember(ids[idx], MemberConfig{
				AutoRejoin: true,
				OnData:     recv[idx].onData,
			})
			if err != nil {
				t.Fatalf("round %d join: %v", round, err)
			}
			next++
			members[idx] = m
		case 1: // a member roams to another area by ticket
			idx := rng.Intn(len(members))
			m := members[idx]
			home := m.ControllerID()
			var target string
			for _, e := range g.Directory() {
				if e.ID != home {
					target = e.ID
					break
				}
			}
			if err := m.Leave(); err != nil {
				t.Fatalf("round %d roam-leave: %v", round, err)
			}
			waitLeft(t, g, home, ids[idx])
			if err := m.Rejoin(target); err != nil {
				t.Fatalf("round %d rejoin: %v", round, err)
			}
		case 2: // traffic burst
			for b := 0; b < 3; b++ {
				idx := rng.Intn(len(members))
				_ = members[idx].Send([]byte(fmt.Sprintf("r%d-%d", round, b)))
			}
		}
	}

	// Steady state: everyone attached, epochs converged per controller.
	waitFor(t, "all members attached", 30*time.Second, func() bool {
		for _, m := range members {
			if !m.Connected() {
				return false
			}
		}
		return true
	})
	waitFor(t, "epochs converged", 30*time.Second, func() bool {
		for _, m := range members {
			var ctl = -1
			for i := 0; i < g.NumAreas(); i++ {
				if ACID(i) == m.ControllerID() {
					ctl = i
				}
			}
			if ctl < 0 || m.Epoch() != g.Controller(ctl).Epoch() {
				return false
			}
		}
		return true
	})

	// A final multicast from one member must reach every other member,
	// across all five areas.
	before := make([]int64, len(members))
	for i, m := range members {
		before[i] = m.Received()
	}
	waitFor(t, "full-group delivery", 30*time.Second, func() bool {
		_ = members[0].Send([]byte("final"))
		for i, m := range members[1:] {
			if m.Received() == before[i+1] {
				return false
			}
		}
		return true
	})

	// Sanity on the books: total membership across controllers equals
	// the population plus the four child-controller entries.
	total := 0
	for i := 0; i < g.NumAreas(); i++ {
		total += g.Controller(i).NumMembers()
	}
	if want := len(members) + countChildACs(g); total != want {
		t.Errorf("controllers account for %d members, want %d", total, want)
	}
}
