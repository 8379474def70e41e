package report

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadBenchJSON hardens the bench-file reader against hostile or
// corrupted artifacts: whatever the bytes, ReadBenchJSON must never
// panic, and any file it accepts must satisfy Validate and survive a
// write/read round trip. The real BENCH_pdw.json from `make bench`
// seeds the corpus alongside targeted schema violations (wrong
// version, malformed timestamp, negative counts).
func FuzzReadBenchJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, validBenchFile()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	if seed, err := os.ReadFile("../../BENCH_pdw.json"); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema_version":3,"generated_at":"2026-08-06T12:00:00Z","go_version":"go1.22.0"}`))
	f.Add([]byte(`{"schema_version":2,"generated_at":"yesterday","go_version":"go1.22.0"}`))
	f.Add([]byte(`{"schema_version":2,"generated_at":"2026-08-06T12:00:00Z","go_version":"go1.22.0",` +
		`"benchmarks":[{"name":"PCR","ops":7,"devices":5,"tasks":15,` +
		`"dawo":{"n_wash":-1,"t_assay_s":90},"pdw":{"n_wash":7,"t_assay_s":75}}]}`))
	f.Add([]byte(`{"schema_version":2,"generated_at":"2026-08-06T12:00:00Z","go_version":"go1.22.0",` +
		`"benchmarks":[{"name":"PCR","ops":7,"devices":5,"tasks":15,` +
		`"dawo":{"n_wash":1,"t_assay_s":90,"wall_samples":[-0.5]},"pdw":{"n_wash":7,"t_assay_s":75}}]}`))
	f.Add([]byte(`{"schema_version":2,"total_wall_seconds":-3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		bf, err := ReadBenchJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the reader accepts is schema-valid by contract.
		if err := bf.Validate(); err != nil {
			t.Fatalf("ReadBenchJSON accepted a file that fails Validate: %v", err)
		}
		// And round-trips: write it back out, read it again.
		var out bytes.Buffer
		if err := WriteBenchJSON(&out, bf); err != nil {
			t.Fatalf("accepted file failed to serialize: %v", err)
		}
		if _, err := ReadBenchJSON(&out); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}
