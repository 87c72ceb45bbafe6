package vprog

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"gluon/internal/gluon"
)

func ssspGenSpec() GenSpec {
	op := SSSPOperator()
	return GenSpec{
		Package:  "ssspgen",
		Operator: op,
		Fields: []GenField{{
			FieldUse: op.Fields[0],
			GoType:   "uint32",
			Op:       ReduceMin,
			ID:       42,
		}},
	}
}

// TestGenerateCompilesAgainstFields: the generated source type-checks
// against the real internal/fields and internal/gluon packages, declares
// only the state type and the wiring function — no Extract/Reduce/Reset/Set
// method bodies, those live once in internal/fields — and refers to
// fields.Min or fields.Sum according to Op.
func TestGenerateCompilesAgainstFields(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)} // shared: caches the imports
	for _, c := range []struct {
		op       Reduction
		goType   string
		want, no string
	}{
		{ReduceMin, "uint32", "fields.Min[uint32](s.Vals)", "fields.Sum["},
		{ReduceAdd, "float64", "fields.Sum[float64](s.Vals)", "fields.Min["},
	} {
		spec := ssspGenSpec()
		spec.Fields[0].Op, spec.Fields[0].GoType = c.op, c.goType
		src, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, "gen.go", src, 0)
		if err != nil {
			t.Fatalf("generated code does not parse: %v\n%s", err, src)
		}
		if file.Name.Name != "ssspgen" {
			t.Errorf("package %s", file.Name.Name)
		}
		if _, err := conf.Check("ssspgen", fset, []*ast.File{file}, nil); err != nil {
			t.Fatalf("%s: generated code does not type-check: %v\n%s", c.op, err, src)
		}
		var decls []string
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls = append(decls, d.Name.Name)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						decls = append(decls, ts.Name.Name)
					}
				}
			}
		}
		if want := []string{"DistState", "NewDistField"}; !slices.Equal(decls, want) {
			t.Errorf("%s: generated declarations %v, want exactly %v", c.op, decls, want)
		}
		if s := string(src); !strings.Contains(s, c.want) || strings.Contains(s, c.no) ||
			!strings.Contains(s, "fields.Set["+c.goType+"](s.Vals)") {
			t.Errorf("%s: wiring does not pick the %s reduction:\n%s", c.op, c.op, s)
		}
	}
}

// TestGenerateLocationsWired: the Field literal carries the operator's
// write/read locations.
func TestGenerateLocationsWired(t *testing.T) {
	spec := ssspGenSpec()
	spec.Fields[0].WrittenAt = gluon.AtSource
	spec.Fields[0].ReadAt = gluon.Anywhere
	src, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if !strings.Contains(s, "Write:     gluon.AtSource") {
		t.Error("write location not wired")
	}
	if !strings.Contains(s, "Read:      gluon.Anywhere") {
		t.Error("read location not wired")
	}
	if !strings.Contains(s, "ID:        42") {
		t.Error("field ID not wired")
	}
}

func TestGenerateErrors(t *testing.T) {
	spec := ssspGenSpec()
	spec.Package = ""
	if _, err := Generate(spec); err == nil {
		t.Error("empty package accepted")
	}
	spec = ssspGenSpec()
	spec.Fields[0].Op = "xor"
	if _, err := Generate(spec); err == nil {
		t.Error("unsupported reduction accepted")
	}
	spec = ssspGenSpec()
	spec.Fields[0].GoType = "string"
	if _, err := Generate(spec); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestExportName(t *testing.T) {
	cases := map[string]string{
		"bfs-dist":   "BfsDist",
		"rank":       "Rank",
		"pr_contrib": "PrContrib",
		"":           "Field",
	}
	for in, want := range cases {
		if got := exportName(in); got != want {
			t.Errorf("exportName(%q) = %q, want %q", in, got, want)
		}
	}
}
