package store_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"pdce/internal/obs"
	"pdce/internal/store"
)

// TestLeaseSingleWinner is the arbitration property: N replicas
// racing Acquire on one key elect exactly one owner.
func TestLeaseSingleWinner(t *testing.T) {
	b := store.NewMemStore()
	const replicas = 8
	var wg sync.WaitGroup
	wins := make(chan string, replicas)
	for i := 0; i < replicas; i++ {
		l := store.NewLease(b, string(rune('a'+i))+"-replica", time.Minute, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			won, err := l.Acquire("contended-key")
			if err != nil {
				t.Error(err)
				return
			}
			if won {
				wins <- "won"
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d replicas won the lease, want exactly 1", n)
	}
}

// TestLeaseReacquireAndRelease pins idempotent re-acquire by the
// owner, exclusion of others, and handoff after Release.
func TestLeaseReacquireAndRelease(t *testing.T) {
	b := store.NewMemStore()
	a := store.NewLease(b, "replica-a", time.Minute, nil)
	c := store.NewLease(b, "replica-c", time.Minute, nil)

	if won, err := a.Acquire("k"); err != nil || !won {
		t.Fatalf("a.Acquire = %v, %v", won, err)
	}
	if won, err := a.Acquire("k"); err != nil || !won {
		t.Fatalf("owner re-Acquire = %v, %v, want won", won, err)
	}
	if won, err := c.Acquire("k"); err != nil || won {
		t.Fatalf("c.Acquire against live lease = %v, %v, want lost", won, err)
	}
	// Releasing someone else's lease is a no-op.
	c.Release("k")
	if won, _ := c.Acquire("k"); won {
		t.Fatal("foreign Release freed the lease")
	}
	a.Release("k")
	if won, err := c.Acquire("k"); err != nil || !won {
		t.Fatalf("Acquire after Release = %v, %v, want won", won, err)
	}
}

// TestLeaseExpiryReclaim is the crashed-owner property: a lease whose
// owner never releases is reclaimed after its TTL, and the reclaim is
// counted — a dead replica can never wedge the fleet.
func TestLeaseExpiryReclaim(t *testing.T) {
	b := store.NewMemStore()
	dead := store.NewLease(b, "dead-replica", 20*time.Millisecond, nil)
	if won, err := dead.Acquire("k"); err != nil || !won {
		t.Fatalf("dead.Acquire = %v, %v", won, err)
	}
	// dead-replica "crashes" here: no Release, no renewal.

	stats := &obs.StoreStats{}
	live := store.NewLease(b, "live-replica", 20*time.Millisecond, stats)
	if won, _ := live.Acquire("k"); won {
		t.Fatal("live replica stole an unexpired lease")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		won, err := live.Acquire("k")
		if err != nil {
			t.Fatal(err)
		}
		if won {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease was never reclaimed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats.LeaseExpiries.Load() == 0 {
		t.Fatal("reclaim was not counted as a lease expiry")
	}
}

// TestLeaseGarbageRecordBroken: an unparseable lease record (a torn
// write on a checksum-less backend) is broken and re-arbitrated, not
// honored forever.
func TestLeaseGarbageRecordBroken(t *testing.T) {
	b := store.NewMemStore()
	if _, err := b.Put(store.LeaseKey("k"), []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	l := store.NewLease(b, "replica-a", time.Minute, nil)
	if won, err := l.Acquire("k"); err != nil || !won {
		t.Fatalf("Acquire over garbage record = %v, %v, want won", won, err)
	}
	// The record now parses and names the new owner.
	rec, err := b.Get(store.LeaseKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	var held struct {
		Owner string `json:"owner"`
	}
	if json.Unmarshal(rec, &held) != nil || held.Owner != "replica-a" {
		t.Fatalf("lease record after reclaim = %s", rec)
	}
}
