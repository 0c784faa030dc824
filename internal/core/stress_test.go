package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/member"
)

// TestConcurrentAccessDuringChurn hammers the controller's blocking
// accessors from many goroutines while members join, leave, and send —
// exercising the node runtime's command path and the data-plane worker
// pool under the race detector. The loop owns all protocol state, so any
// unsynchronized escape (a worker touching loop state, a drain-goroutine
// send racing an accessor) shows up here.
func TestConcurrentAccessDuringChurn(t *testing.T) {
	const (
		population = 8
		readers    = 4
		churnIters = 6
	)
	g, err := New(fastTiming(2)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if err := g.WarmMemberKeys(population + churnIters + 2); err != nil {
		t.Fatalf("WarmMemberKeys: %v", err)
	}

	members := make([]*member.Member, population)
	for i := range members {
		m, err := g.AddMember(fmt.Sprintf("s%d", i), MemberConfig{})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: hit every cross-thread accessor as fast as they can.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < g.NumAreas(); i++ {
					c := g.Controller(i)
					_ = c.NumMembers()
					_ = c.Epoch()
					_ = c.PendingEvents()
					_ = c.HasMember(fmt.Sprintf("s%d", r))
					c.FlushBatch()
				}
				m := members[r%len(members)]
				_ = m.Epoch()
				_ = m.Connected()
			}
		}(r)
	}

	// Traffic: a member multicasts while readers poll.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = members[0].Send([]byte(fmt.Sprintf("burst-%d", i)))
			time.Sleep(time.Millisecond)
		}
	}()

	// Churn on the main goroutine: join a fresh member, roam an existing
	// one. Readers share the fixed initial slice, so churn-added members
	// are tracked separately.
	var added []*member.Member
	for iter := 0; iter < churnIters; iter++ {
		m, err := g.AddMember(fmt.Sprintf("s%d", population+iter), MemberConfig{})
		if err != nil {
			t.Fatalf("churn join %d: %v", iter, err)
		}
		added = append(added, m)
		vi := 1 + iter%(population-1)
		victim := members[vi]
		home := victim.ControllerID()
		if err := victim.Leave(); err != nil {
			t.Fatalf("churn leave %d: %v", iter, err)
		}
		waitLeft(t, g, home, fmt.Sprintf("s%d", vi))
		target := g.Directory()[iter%g.NumAreas()].ID
		if err := victim.Rejoin(target); err != nil {
			t.Fatalf("churn rejoin %d: %v", iter, err)
		}
	}

	close(stop)
	wg.Wait()

	// Accessors still answer after the churn settles.
	waitFor(t, "books to balance", 10*time.Second, func() bool {
		total := 0
		for i := 0; i < g.NumAreas(); i++ {
			total += g.Controller(i).NumMembers()
		}
		return total == len(members)+len(added)+countChildACs(g)
	})
}
