package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad hammers the snapshot parser with arbitrary bytes: whatever the
// input, Load must return an error or a framework — never panic, never
// spin, never allocate unboundedly. The committed seed corpus
// (testdata/fuzz/FuzzLoad) contains a valid snapshot, a bare header, and
// assorted near-valid mutations, and the seeds below add a snapshot of
// the current form and one an older build wrote — no waypoints, and the
// simulated page store's layouts in its PGLY section; run with
// `go test -fuzz=FuzzLoad` to explore further.
func FuzzLoad(f *testing.F) {
	valid := fuzzFixtureBytes(f)
	f.Add(valid)
	old, err := os.ReadFile(filepath.Join("..", "..", "testdata", "prewaypoint", "mono.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add(valid[:len(Magic)+8])         // magic + version + count only
	f.Add(valid[:len(valid)/2])         // mid-file truncation
	f.Add([]byte{})                     // empty
	f.Add([]byte("ROADSNAPgarbage"))    // magic with a garbage tail
	f.Add(bytes.Repeat(valid, 2)[:300]) // repeated prefix

	// Header with an absurd section count (count checks must fire before
	// any allocation sized by it).
	bogus := append([]byte(nil), valid[:len(Magic)+8]...)
	binary.LittleEndian.PutUint32(bogus[len(Magic)+4:], 0xFFFFFFFF)
	f.Add(bogus)

	// A header-CRC-valid file whose section payload is corrupt: flips a
	// payload byte and repairs the section CRC in the table, so decoding
	// (not checksumming) has to reject it.
	tampered := append([]byte(nil), valid...)
	count := int(binary.LittleEndian.Uint32(tampered[len(Magic)+4:]))
	tableEnd := len(Magic) + 8 + count*16
	payloadStart := tableEnd + 4
	if payloadStart+16 < len(tampered) {
		tampered[payloadStart+8] ^= 0xFF
		first := tampered[payloadStart : payloadStart+int(binary.LittleEndian.Uint64(tampered[len(Magic)+8+4:]))]
		binary.LittleEndian.PutUint32(tampered[len(Magic)+8+12:], crc32.Checksum(first, crcTable))
		fixHeaderCRC(tampered)
		f.Add(tampered)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fw, _, err := Load(bytes.NewReader(data))
		if err == nil && fw == nil {
			t.Fatal("Load returned neither framework nor error")
		}
		if err != nil && err.Error() == "" {
			t.Fatal("Load returned an empty error")
		}
	})
}

// fuzzFixtureBytes serializes a tiny deterministic framework for corpus
// seeding (small inputs keep fuzz executions fast).
func fuzzFixtureBytes(f *testing.F) []byte {
	f.Helper()
	fw := tinyFixture(f)
	var buf bytes.Buffer
	if err := Save(fw, 3, &buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}
