package edgesurgeon_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed lists the non-test functions no binary links that stay on
// purpose, each with the reason it stays. Keys are written as `go tool nm`
// prints them: import path, then the receiver as "(*T)" or "T", then the name.
var reachAllowed = map[string]string{
	"edgesurgeon.Zoo":                   "public facade catalog; pinned by edgesurgeon_test.go",
	"edgesurgeon.Models":                "public facade catalog; pinned by edgesurgeon_test.go",
	"edgesurgeon.ModelByName":           "public facade catalog; pinned by edgesurgeon_test.go",
	"edgesurgeon.Hardware":              "public facade catalog; pinned by edgesurgeon_test.go",
	"edgesurgeon.HardwareByName":        "public facade catalog; pinned by edgesurgeon_test.go",
	"edgesurgeon.OptimizeSurgery":       "public facade surgery call; pinned by edgesurgeon_test.go",
	"edgesurgeon.DefaultCurves":         "public facade surgery call; pinned by edgesurgeon_test.go",
	"edgesurgeon/internal/dnn.ZooNames": "behind the facade's catalog listing; pinned by edgesurgeon_test.go",

	"edgesurgeon/internal/surgery.BruteForce":                 "the surgery tests' exhaustive oracle",
	"edgesurgeon/internal/baseline.ExhaustiveAssignment.Name": "implements joint.Strategy; its callers call Plan directly",

	"edgesurgeon/internal/telemetry.(*Journal).CountKind": "used by the serve tests",
	"edgesurgeon/internal/telemetry.(*Registry).Snapshot": "used by the joint and serve tests",
	"edgesurgeon/internal/hardware.Devices":               "used by the joint and surgery tests",
	"edgesurgeon/internal/hardware.Servers":               "used by the joint and surgery tests",
	"edgesurgeon/internal/serve.(*Runtime).Seq":           "used by the serve and agent tests",

	"edgesurgeon/internal/sim.(*Engine).At":    "the clock hook the in-process cluster drives (ROADMAP item 2)",
	"edgesurgeon/internal/sim.(*Engine).After": "the clock hook the in-process cluster drives (ROADMAP item 2)",
	"edgesurgeon/internal/pace.Until":          "the paced wait the load generator is to use (ROADMAP item 8)",
}

// TestFunctionsReachable builds every main package and the bench/ module
// without inlining, reads the text symbols each binary links, and fails
// for every top-level function or method of a non-test file outside bench/
// that none of them links and reachAllowed does not name. It also fails on
// allowlist entries that have gone stale. A function that only tests call
// belongs in a _test.go file.
func TestFunctionsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := t.TempDir()
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goBin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return out
	}
	var mains []string
	for _, line := range strings.Split(strings.TrimSpace(string(run("list", "-f", `{{if eq .Name "main"}}{{.Dir}}{{end}}`, "./..."))), "\n") {
		if line != "" {
			mains = append(mains, line)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	run(append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	run("build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	// Library symbols count from any binary; a main package's count only
	// from its own. Each binary is named after its directory.
	linked := map[string]bool{}
	for _, dir := range append(mains, filepath.Join(wd, "bench")) {
		rel, err := filepath.Rel(wd, dir)
		if err != nil {
			t.Fatal(err)
		}
		mainPath := "edgesurgeon/" + filepath.ToSlash(rel)
		sc := bufio.NewScanner(bytes.NewReader(run("tool", "nm", filepath.Join(bin, filepath.Base(dir)))))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := stripBrackets(f[2])
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = mainPath + "." + rest
			}
			if strings.HasPrefix(sym, "edgesurgeon") {
				linked[sym] = true
			}
		}
	}

	type fn struct {
		keys []string
		pos  string
	}
	var fns []fn
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(wd, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(wd, path)
		if d.IsDir() {
			if rel == "bench" || rel == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "edgesurgeon"
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			var keys []string
			if fd.Recv == nil {
				keys = []string{pkg + "." + fd.Name.Name}
			} else {
				recv, ptr := receiverName(fd.Recv.List[0].Type)
				keys = []string{pkg + ".(*" + recv + ")." + fd.Name.Name}
				if !ptr {
					keys = append([]string{pkg + "." + recv + "." + fd.Name.Name}, keys...)
				}
			}
			declared[keys[0]] = true
			pos := fset.Position(fd.Pos())
			posRel, _ := filepath.Rel(wd, pos.Filename)
			fns = append(fns, fn{keys, posRel + ":" + strconv.Itoa(pos.Line)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unreached []string
	for _, f := range fns {
		reached := false
		for _, k := range f.keys {
			reached = reached || linked[k]
		}
		_, allowed := reachAllowed[f.keys[0]]
		switch {
		case reached && allowed:
			t.Errorf("%s: %s is linked now; remove its reachAllowed entry", f.pos, f.keys[0])
		case !reached && !allowed:
			unreached = append(unreached, f.pos+": "+f.keys[0])
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is linked into no binary: delete it, move it into the tests that use it, or allowlist it with a reason", u)
	}
	for k, reason := range reachAllowed {
		if !declared[k] {
			t.Errorf("reachAllowed names %s, which no longer exists", k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("reachAllowed entry %s gives no reason", k)
		}
	}
}

// stripBrackets removes generic instantiation brackets, which can nest:
// pkg.(*T[go.shape.[]int]).M becomes pkg.(*T).M.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// receiverName returns a method receiver's base type name and whether the
// receiver is a pointer.
func receiverName(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}
