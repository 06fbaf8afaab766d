package kernel

import (
	"slices"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
)

func TestColourAuditCleanPartition(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	for i := range procs {
		if _, err := k.MapUserBuffer(procs[i], 0x400000, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := k.NewThread(procs[i], "t", 10, i, &counter{base: 0x400000, limit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runFor(k, 0, 4*testSlice)
	violations := k.AuditColourIsolation(procs[:])
	if len(violations) != 0 {
		t.Fatalf("clean partition reported violations: %v", violations)
	}
}

func TestColourAuditDetectsForeignMapping(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	// Smuggle a frame of domain 1's colours into domain 0's AS.
	foreign, err := procs[1].Pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := procs[0].AS.Map(0x600000, foreign, false); err != nil {
		t.Fatal(err)
	}
	violations := k.AuditColourIsolation(procs[:])
	if len(violations) == 0 {
		t.Fatal("foreign mapping not detected")
	}
	found := false
	for _, v := range violations {
		if v.What == "address-space" && v.Frame == foreign {
			found = true
			if v.String() == "" {
				t.Error("empty violation string")
			}
		}
	}
	if !found {
		t.Fatalf("violation list %v misses the smuggled frame", violations)
	}
}

func TestColourAuditSkipsUnrestricted(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	if _, err := k.MapUserBuffer(procs[0], 0x400000, 4); err != nil {
		t.Fatal(err)
	}
	if v := k.AuditColourIsolation(procs[:]); len(v) != 0 {
		t.Fatalf("raw (unrestricted) processes must not be audited: %v", v)
	}
}

// TestColourAuditIsDeterministic smuggles several foreign frames into
// one address space, across two page tables, and requires two audits
// to list the violations identically: the address space reports its
// frames by table, then by VPN, never in map order.
func TestColourAuditIsDeterministic(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	var want []memory.PFN
	for _, va := range []uint64{0x600000, 0x601000, 0x800000, 0x602000, 0xA00000} {
		f, err := procs[1].Pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := procs[0].AS.Map(va, f, false); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	first := k.AuditColourIsolation(procs[:])
	second := k.AuditColourIsolation(procs[:])
	if !slices.Equal(first, second) {
		t.Fatalf("audits differ:\n%v\n%v", first, second)
	}
	var got []memory.PFN
	for _, v := range first {
		if v.What == "address-space" {
			got = append(got, v.Frame)
		}
	}
	// By VPN: 0x600000, 0x601000, 0x602000, 0x800000, 0xA00000.
	want = []memory.PFN{want[0], want[1], want[3], want[2], want[4]}
	if !slices.Equal(got, want) {
		t.Fatalf("address-space violations %v, want %v in VPN order", got, want)
	}
}
