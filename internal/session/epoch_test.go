package session

import (
	"testing"
	"time"
)

// TestRestartedShardMintsFreshIDs: in a cluster the shard that receives
// a create mints the ID and another shard, the ID's ring owner, holds
// the session. A minting shard that restarted used to count from 1
// again and check only its own registry and journal, so it handed out
// the ID of a session still live on the owner. Here shard A mints for
// owner B, restarts (its registry clock frozen, as tests inject it),
// and mints again: the new ID must differ and B must accept it.
func TestRestartedShardMintsFreshIDs(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return frozen }
	dirA := t.TempDir()
	stA := openJournal(t, dirA)
	a := NewRegistry(Options{Journal: stA, IDPrefix: IDPrefixForAddr("shard-a:1"), Clock: clock})
	stB := openJournal(t, t.TempDir())
	t.Cleanup(func() { stB.Close() })
	b := newTestRegistry(t, Options{Journal: stB, IDPrefix: IDPrefixForAddr("shard-b:1")})

	first := a.NewID()
	if _, err := b.CreateWithID(first, Spec{Channel: "l1d", Samples: 10}); err != nil {
		t.Fatalf("owner create %q: %v", first, err)
	}

	a.Close()
	if err := stA.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	stA = openJournal(t, dirA)
	t.Cleanup(func() { stA.Close() })
	a2 := NewRegistry(Options{Journal: stA, IDPrefix: IDPrefixForAddr("shard-a:1"), Clock: clock})
	t.Cleanup(a2.Close)

	second := a2.NewID()
	if second == first {
		t.Fatalf("restarted shard minted %q again, a session live on its owner", first)
	}
	if _, err := b.CreateWithID(second, Spec{Channel: "l1d", Samples: 10}); err != nil {
		t.Fatalf("owner create %q after the minting shard restarted: %v", second, err)
	}
	if s, ok := b.Get(first); !ok || s.ID != first {
		t.Errorf("first session %q lost on its owner", first)
	}
}
