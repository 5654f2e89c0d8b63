package spec

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the spec parser, seeded with every
// checked-in spec, a JSON spec and everyFieldSpec. Parse must return an
// error rather than panic, and Validate must not panic on anything Parse
// accepts. go test runs the seeds (and any crashers checked in under
// testdata/fuzz/FuzzParse); go test -fuzz FuzzParse explores.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(specDir, "*.yaml"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs under %s (err %v)", specDir, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(jsonSpec))
	f.Add([]byte(everyFieldSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		n := file.Engine.Neighborhood
		if n <= 0 {
			n = defaultNeighborhood
		}
		_ = file.Validate(n)
	})
}
