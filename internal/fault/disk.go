package fault

import (
	"fmt"
	"os"
	"sync"

	"timeprotection/internal/store"
)

// DiskRates are per-operation injection probabilities in [0, 1].
// WriteError and ShortWrite are drawn from one uniform variate
// (mutually exclusive per write); RenameError and RenameOrphan likewise
// per rename.
type DiskRates struct {
	// WriteError fails the staging write outright (ENOSPC-style):
	// nothing lands on disk.
	WriteError float64
	// ShortWrite is a simulated crash mid-write: a truncated prefix
	// lands in the staging file and the operation reports failure —
	// exactly the state a SIGKILL between write and rename leaves.
	ShortWrite float64
	// RenameError fails the commit rename before it happens.
	RenameError float64
	// RenameOrphan is a simulated crash between rename and journal
	// append: the rename completes, then the operation reports failure,
	// leaving a committed-but-unjournalled object for recovery to
	// quarantine.
	RenameOrphan float64
}

// DiskStats counts what a Disk has injected.
type DiskStats struct {
	Writes       uint64 `json:"writes"`
	WriteErrors  uint64 `json:"write_errors"`
	ShortWrites  uint64 `json:"short_writes"`
	Renames      uint64 `json:"renames"`
	RenameErrors uint64 `json:"rename_errors"`
	Orphans      uint64 `json:"orphans"`
}

// Disk injects deterministic disk faults into internal/store's write
// path. Decisions are drawn from a splitmix64 stream keyed by (seed,
// operation kind, per-kind sequence number) — the same discipline as
// Net — so a torture run replays exactly from its
// seed regardless of goroutine interleaving per sequential caller.
// WriteFile and Rename match store.Hooks' signatures:
//
//	store.Open(dir, store.Options{Hooks: store.Hooks{
//		WriteFile: disk.WriteFile, Rename: disk.Rename}})
type Disk struct {
	seed  int64
	rates DiskRates

	mu     sync.Mutex
	writes uint64
	rens   uint64
	stats  DiskStats
}

// NewDisk builds a Disk injector for a seed.
func NewDisk(seed int64, rates DiskRates) *Disk {
	return &Disk{seed: seed, rates: rates}
}

// Hooks assembles the store hook set for this injector.
func (d *Disk) Hooks() store.Hooks {
	return store.Hooks{WriteFile: d.WriteFile, Rename: d.Rename}
}

// WriteFile is the staging-write hook: clean delegation, an injected
// write error, or a crash-faithful short write.
func (d *Disk) WriteFile(path string, data []byte) error {
	d.mu.Lock()
	n := d.writes
	d.writes++
	d.stats.Writes++
	d.mu.Unlock()
	u := unit(mix64((mix64(uint64(d.seed)) ^ fnv64("write")) + n*gamma))
	switch {
	case u < d.rates.WriteError:
		d.mu.Lock()
		d.stats.WriteErrors++
		d.mu.Unlock()
		return fmt.Errorf("%w: no space left on device (write %d)", ErrInjected, n)
	case u < d.rates.WriteError+d.rates.ShortWrite:
		d.mu.Lock()
		d.stats.ShortWrites++
		d.mu.Unlock()
		// The torn prefix really lands, then the "process dies".
		store.WriteFileSync(path, data[:len(data)/2])
		return fmt.Errorf("%w: crash mid-write (write %d)", ErrInjected, n)
	}
	return store.WriteFileSync(path, data)
}

// Rename is the commit hook: clean delegation, a failed rename, or a
// completed rename that reports failure (orphaning the object).
func (d *Disk) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	n := d.rens
	d.rens++
	d.stats.Renames++
	d.mu.Unlock()
	u := unit(mix64((mix64(uint64(d.seed)) ^ fnv64("rename")) + n*gamma))
	switch {
	case u < d.rates.RenameError:
		d.mu.Lock()
		d.stats.RenameErrors++
		d.mu.Unlock()
		return fmt.Errorf("%w: rename failed (rename %d)", ErrInjected, n)
	case u < d.rates.RenameError+d.rates.RenameOrphan:
		d.mu.Lock()
		d.stats.Orphans++
		d.mu.Unlock()
		os.Rename(oldpath, newpath)
		return fmt.Errorf("%w: crash after rename (rename %d)", ErrInjected, n)
	}
	return os.Rename(oldpath, newpath)
}

// Stats snapshots the injection counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
