//go:build neverrun

package gridpipe_test

// The never-run fence, run by `make cover` (and the CI job of the same
// purpose) after the suite has written its coverage, merged across
// every test binary, to coverProfile. It is kept out of `make check`
// by its build tag: it needs the whole suite rerun with coverage.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const (
	coverProfile  = ".cover/merged.out"
	uncoveredList = "testdata/uncovered.txt"
	// maxSource is the longest block source kept whole in a key; a
	// longer one is cut and suffixed with a hash of the whole.
	maxSource = 120
)

// neverRunBlock is one coverage block no test ran.
type neverRunBlock struct {
	key    string // "package\tfunction\tsource": no line numbers, so unrelated edits do not move it
	stmts  int
	reason string
}

// TestNeverRunFence rewrites uncoveredList to the blocks no test ran,
// carrying each listed block's reason over, and fails on a block the
// list did not hold or holds without a reason: a statement either runs
// under a test or is listed with the reason it may not. A listed block
// that now runs drops out of the rewritten list, so the list only
// shrinks.
func TestNeverRunFence(t *testing.T) {
	ix := parseModule(t)
	got := neverRunBlocks(t, ix)
	listed := readUncoveredList(t)

	reasons := map[string][]string{}
	for _, b := range listed {
		reasons[b.key] = append(reasons[b.key], b.reason)
	}
	stmts := 0
	for i := range got {
		b := &got[i]
		stmts += b.stmts
		if rs := reasons[b.key]; len(rs) > 0 {
			b.reason, reasons[b.key] = rs[0], rs[1:]
		}
		if b.reason == "" {
			t.Errorf("never runs and has no reason in %s: %s\n  test it, delete it, or give the reason it may not run",
				uncoveredList, strings.ReplaceAll(b.key, "\t", "  "))
		}
	}
	for key, rs := range reasons {
		for range rs {
			t.Logf("now runs, dropped from %s: %s", uncoveredList, strings.ReplaceAll(key, "\t", "  "))
		}
	}
	writeUncoveredList(t, got)
	t.Logf("%d never-run statements in %d blocks", stmts, len(got))
}

// neverRunBlocks merges coverProfile's blocks across test binaries (a
// block ran if any binary ran it) and keys every block none ran.
func neverRunBlocks(t *testing.T, ix *moduleIndex) []neverRunBlock {
	t.Helper()
	f, err := os.Open(coverProfile)
	if err != nil {
		t.Fatalf("%v (make cover writes it)", err)
	}
	defer f.Close()
	type block struct {
		file                           string
		line0, col0, line1, col1, stmt int
	}
	ran := map[block]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		// file:line0.col0,line1.col1 stmts count
		var b block
		var count int
		colon := strings.LastIndexByte(line, ':')
		b.file = strings.TrimPrefix(strings.TrimPrefix(line[:colon], modulePath), "/")
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d",
			&b.line0, &b.col0, &b.line1, &b.col1, &b.stmt, &count); err != nil {
			t.Fatalf("%s: %q: %v", coverProfile, line, err)
		}
		ran[b] = ran[b] || count > 0
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	src := map[string][]byte{}
	var out []neverRunBlock
	for b, r := range ran {
		if r {
			continue
		}
		af := ix.files[b.file]
		if af == nil {
			t.Fatalf("%s names %s, which the module parse does not hold", coverProfile, b.file)
		}
		if src[b.file] == nil {
			if src[b.file], err = os.ReadFile(b.file); err != nil {
				t.Fatal(err)
			}
		}
		tf := ix.fset.File(af.Pos())
		start := tf.LineStart(b.line0) + token.Pos(b.col0-1)
		end := tf.LineStart(b.line1) + token.Pos(b.col1-1)
		pkg := modulePath
		if i := strings.LastIndexByte(b.file, '/'); i >= 0 {
			pkg += "/" + b.file[:i]
		}
		text := tokens(src[b.file][tf.Offset(start):tf.Offset(end)])
		out = append(out, neverRunBlock{
			key:   pkg + "\t" + enclosingFunc(af, start) + "\t" + text,
			stmts: b.stmt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// tokens renders Go source as its tokens separated by single spaces:
// layout and comments do not reach a key. A long rendering is cut and
// suffixed with a hash of the whole, so it still changes when the
// block does.
func tokens(src []byte) string {
	var s scanner.Scanner
	fset := token.NewFileSet()
	s.Init(fset.AddFile("", -1, len(src)), src, nil, 0)
	var parts []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		switch {
		case tok == token.SEMICOLON && lit == "\n":
			// inserted at a line end, not written
		case lit != "":
			parts = append(parts, lit)
		default:
			parts = append(parts, tok.String())
		}
	}
	text := strings.Join(parts, " ")
	if len(text) > maxSource {
		h := fnv.New32a()
		h.Write([]byte(text))
		text = fmt.Sprintf("%s … #%08x", text[:maxSource-20], h.Sum32())
	}
	return text
}

// enclosingFunc names the top-level declaration holding pos: a
// function, Type.Method, or the first name a var spec declares.
func enclosingFunc(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		if pos < d.Pos() || pos >= d.End() {
			continue
		}
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				return recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			return d.Name.Name
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if vs, ok := s.(*ast.ValueSpec); ok && pos >= vs.Pos() && pos < vs.End() {
					return vs.Names[0].Name
				}
			}
		}
	}
	return "-"
}

// readUncoveredList reads uncoveredList: one block per line, tab
// separated as package, function, statements, source, reason; '#'
// starts a comment line.
func readUncoveredList(t *testing.T) []neverRunBlock {
	t.Helper()
	data, err := os.ReadFile(uncoveredList)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []neverRunBlock
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("%s:%d: %d tab-separated fields, want 5", uncoveredList, i+1, len(f))
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatalf("%s:%d: statements %q: %v", uncoveredList, i+1, f[2], err)
		}
		out = append(out, neverRunBlock{key: f[0] + "\t" + f[1] + "\t" + f[3], stmts: n, reason: f[4]})
	}
	return out
}

func writeUncoveredList(t *testing.T, blocks []neverRunBlock) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Statements no test runs, merged over every test binary. `make cover`\n")
	b.WriteString("# rewrites this file; a block missing from it, or listed without a\n")
	b.WriteString("# reason, fails the never-run fence (neverrun_test.go).\n")
	b.WriteString("# package\tfunction\tstatements\tblock source (tokens)\treason\n")
	for _, nb := range blocks {
		k := strings.SplitN(nb.key, "\t", 3)
		fmt.Fprintf(&b, "%s\t%s\t%d\t%s\t%s\n", k[0], k[1], nb.stmts, k[2], nb.reason)
	}
	if err := os.WriteFile(uncoveredList, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
