package area

import (
	"testing"
	"time"

	"mykil/internal/clock"
	"mykil/internal/wire"
)

// These tests pin the §IV-A timer semantics to the clock, not the wall:
// with hour-scale periods on a fake clock, nothing may happen until the
// clock is advanced, and everything must happen once it is.

var fakeEpoch = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// advanceUntil steps the fake clock until cond holds, giving the
// controller loop real time to consume each tick.
func advanceUntil(t *testing.T, fake *clock.Fake, step time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held under fake-clock advancement")
		}
		fake.Advance(step)
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFakeClockAliveOnlyAfterIdlePeriod(t *testing.T) {
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(c *Config) {
		c.Clock = fake
		c.TIdle = time.Hour
		c.TActive = 4 * time.Hour
		c.RekeyInterval = 8 * time.Hour
	})
	r.joinAt("c1", fake.Now())

	// Real time passes, fake time does not: no alive message may appear.
	expectNoKind(t, r.cli, wire.KindACAlive, 150*time.Millisecond)

	// One idle period on the clock: the alive multicast must follow.
	got := make(chan struct{}, 1)
	go func() {
		recvKind(t, r.cli, wire.KindACAlive)
		got <- struct{}{}
	}()
	advanceUntil(t, fake, 30*time.Minute, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})
}

func TestFakeClockEvictionAfterSilence(t *testing.T) {
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(c *Config) {
		c.Clock = fake
		c.TIdle = time.Hour
		c.TActive = 2 * time.Hour
		c.RekeyInterval = time.Hour
	})
	r.joinAt("c1", fake.Now())
	if !r.ctrl.HasMember("c1") {
		t.Fatal("member missing after join")
	}

	// 5×T_active = 10h of client silence evicts; before that, nothing.
	fake.Advance(9 * time.Hour)
	time.Sleep(20 * time.Millisecond)
	if !r.ctrl.HasMember("c1") {
		t.Fatal("member evicted before the silence threshold")
	}
	advanceUntil(t, fake, time.Hour, func() bool { return !r.ctrl.HasMember("c1") })
	if got := r.ctrl.Stats().Value(StatEvictions); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// A PathRequest is unsigned: one naming a member but sent from another
// address must neither count as that member's sign of life (it would
// postpone the §IV-A eviction indefinitely) nor buy a sealed and signed
// PathUpdate.
func TestFakeClockForgedPathRequestIgnored(t *testing.T) {
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(c *Config) {
		c.Clock = fake
		c.TIdle = time.Hour
		c.TActive = 2 * time.Hour
		c.RekeyInterval = time.Hour
	})
	w := r.joinAt("c1", fake.Now())

	// Nine hours into c1's silence a non-member speaks in its name.
	fake.Advance(9 * time.Hour)
	body, err := wire.PlainBody(wire.PathRequest{MemberID: "c1", Epoch: w.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.peer.Send("ac-0", &wire.Frame{Kind: wire.KindPathRequest, From: "ac-peer", Body: body}); err != nil {
		t.Fatal(err)
	}
	expectNoKind(t, r.cli, wire.KindPathUpdate, 150*time.Millisecond)
	expectNoKind(t, r.peer, wire.KindPathUpdate, 10*time.Millisecond)

	// 5×T_active = 10h: eleven hours after c1 was last heard it is gone,
	// which it would not be had the forgery refreshed it at nine.
	fake.Advance(2 * time.Hour)
	for deadline := time.Now().Add(5 * time.Second); r.ctrl.HasMember("c1"); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("forged PathRequest postponed the silent member's eviction")
		}
	}
}

func TestFakeClockFreshnessRekey(t *testing.T) {
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(c *Config) {
		c.Clock = fake
		c.TIdle = time.Hour
		c.TActive = 4 * time.Hour
		c.RekeyInterval = time.Hour
		c.FreshnessInterval = 6 * time.Hour
	})
	r.joinAt("c1", fake.Now())
	epoch := r.ctrl.Epoch()

	// No events, clock stopped: the key must not rotate.
	time.Sleep(100 * time.Millisecond)
	if r.ctrl.Epoch() != epoch {
		t.Fatal("area key rotated without clock advancement")
	}

	// Crossing the freshness interval rotates the key and multicasts
	// E_old(new) — one entry — to the members.
	got := make(chan struct{}, 1)
	go func() {
		f := recvKind(t, r.cli, wire.KindKeyUpdate)
		var u wire.KeyUpdate
		if err := wire.DecodePlain(f.Body, &u); err == nil && len(u.Entries) == 1 {
			got <- struct{}{}
		}
	}()
	advanceUntil(t, fake, 2*time.Hour, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})
	if r.ctrl.Epoch() <= epoch {
		t.Errorf("epoch %d not advanced past %d by freshness rekey", r.ctrl.Epoch(), epoch)
	}
}

func TestFakeClockBatchFlushOnRekeyInterval(t *testing.T) {
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(c *Config) {
		c.Clock = fake
		c.Batching = true
		c.TIdle = time.Hour
		c.TActive = 4 * time.Hour
		c.RekeyInterval = 3 * time.Hour
	})
	nonce := uint64(1000)
	r.refer("c1", nonce, fake.Now())
	r.step6("c1", nonce+2, 7)

	// The admission must stay queued while the clock is stopped.
	expectNoKind(t, r.cli, wire.KindJoinWelcome, 150*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for r.ctrl.PendingEvents() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("admission never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crossing the rekey interval flushes it.
	got := make(chan struct{}, 1)
	go func() {
		recvKind(t, r.cli, wire.KindJoinWelcome)
		got <- struct{}{}
	}()
	advanceUntil(t, fake, time.Hour, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})
	if !r.ctrl.HasMember("c1") {
		t.Error("member missing after interval flush")
	}
}
