package regcast_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forbiddenSimImports are the simulation packages main programs must reach
// only through the public regcast facade. CI enforces the same boundary
// with go list; this test keeps it visible in a plain `go test ./...`.
var forbiddenSimImports = []string{
	"regcast/internal/phonecall",
	"regcast/internal/experiments",
}

// TestNoSimulationInternalImportsInMains parses every Go file under cmd/
// and examples/ and fails if one imports a simulation-internal package
// directly: the whole point of the facade is that programs select engines
// and observe runs through the regcast package alone.
func TestNoSimulationInternalImportsInMains(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				for _, bad := range forbiddenSimImports {
					if p == bad || strings.HasPrefix(p, bad+"/") {
						t.Errorf("%s imports %s directly; use the regcast facade", path, p)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}
