package analysis

// //cmosvet:unit annotation collection.
//
// A declaration site binds its physical unit with a directive comment:
//
//	KSat float64 // drive factor //cmosvet:unit A/V^a     (struct field)
//	const ReferenceTempK = 373.0 // //cmosvet:unit K      (package const)
//
//	// IdUnit returns the saturation drain current …
//	//cmosvet:unit vgs V
//	//cmosvet:unit vts V
//	//cmosvet:unit return A
//	func (t *Tech) IdUnit(vgs, vts float64) float64 { … } (params/results)
//
// The directive may trail other comment text on the same line (a field keeps
// its human description) but must be the line's last clause. Two forms exist:
// the bare form `//cmosvet:unit <expr>` binds to the declaration carrying the
// comment (field, const, var — or a function's single result); the named form
// `//cmosvet:unit <name> <expr>` appears in a function's doc comment and
// binds <name>, which is a parameter name, `return` (first result) or
// `returnN` (N-th result, 1-based).
//
// Units attach to float-valued declarations: float64/float32, and slices,
// arrays, maps and pointers thereof (the unit then describes the element).
// Annotating anything else, or an unparsable expression, is itself a
// dimcheck diagnostic — a typo in a unit must fail the gate, not silently
// widen it.
//
// collectUnits resolves a package's annotations twice over: a flat
// string-keyed table ("Type.Field", "Name", "Func.param.x", "Type.Meth.return")
// carried in PkgFacts.Units for cross-package resolution, and a
// types.Object-keyed table for in-package precision.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

var unitRx = regexp.MustCompile(`//.*?cmosvet:unit\s+(.+?)\s*$`)

// unitTable is one package's resolved unit annotations.
type unitTable struct {
	// decls is the flat fact table: declaration key → dimension.
	decls map[string]Dim
	// objects resolves in-package annotated objects (fields, consts, vars,
	// params, named results) directly.
	objects map[types.Object]Dim
	// errs are malformed annotations (bad grammar, unknown unit, non-float
	// target); dimcheck reports them as diagnostics.
	errs []unitError
}

type unitError struct {
	pos token.Pos
	msg string
}

// UnitDecls renders the table's flat fact map for serialization and the
// -units report.
func (t *unitTable) UnitDecls() map[string]string {
	if len(t.decls) == 0 {
		return nil
	}
	out := make(map[string]string, len(t.decls))
	for k, d := range t.decls {
		out[k] = d.String()
	}
	return out
}

// UnitCoverage measures how much of a package's exported physical surface is
// annotated: total counts the exported float-carrier fields of exported
// struct types, annotated counts those bound in the unit table, and missing
// lists the unannotated "Type.Field" keys in source order. The -units=coverage
// gate fails when annotated/total drops below its floor.
func UnitCoverage(p *LoadedPackage) (annotated, total int, missing []string) {
	t := collectUnits(p.Files, p.Info)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if !name.IsExported() {
							continue
						}
						obj := p.Info.Defs[name]
						if obj == nil || !floatCarrier(obj.Type()) {
							continue
						}
						total++
						key := ts.Name.Name + "." + name.Name
						if _, ok := t.decls[key]; ok {
							annotated++
						} else {
							missing = append(missing, key)
						}
					}
				}
			}
		}
	}
	return annotated, total, missing
}

// directive is one parsed //cmosvet:unit occurrence.
type directive struct {
	name string // "" for the bare form
	expr string
	pos  token.Pos
}

// directivesIn extracts the unit directives of a comment group.
func directivesIn(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		m := unitRx.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		fields := strings.Fields(m[1])
		switch len(fields) {
		case 1:
			out = append(out, directive{expr: fields[0], pos: c.Pos()})
		case 2:
			out = append(out, directive{name: fields[0], expr: fields[1], pos: c.Pos()})
		default:
			// Keep the malformed directive; binders report it.
			out = append(out, directive{name: "\x00malformed", expr: m[1], pos: c.Pos()})
		}
	}
	return out
}

// collectUnits walks a package's files and resolves every unit annotation.
func collectUnits(files []*ast.File, info *types.Info) *unitTable {
	t := &unitTable{
		decls:   map[string]Dim{},
		objects: map[types.Object]Dim{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				t.genDecl(d, info)
			case *ast.FuncDecl:
				t.funcDecl(d, info)
			}
		}
	}
	return t
}

func (t *unitTable) errorf(pos token.Pos, format string, args ...any) {
	t.errs = append(t.errs, unitError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// parse validates a directive's unit expression.
func (t *unitTable) parse(d directive) (Dim, bool) {
	if d.name == "\x00malformed" {
		t.errorf(d.pos, "malformed //cmosvet:unit directive %q: want `//cmosvet:unit <expr>` or `//cmosvet:unit <name> <expr>`", d.expr)
		return TopDim(), false
	}
	dim, err := ParseUnit(d.expr)
	if err != nil {
		t.errorf(d.pos, "bad //cmosvet:unit expression %q: %v", d.expr, err)
		return TopDim(), false
	}
	return dim, true
}

// floatCarrier reports whether typ can carry a unit: a float, or a slice,
// array, map or pointer whose element (transitively) is one.
func floatCarrier(typ types.Type) bool {
	for {
		switch u := typ.Underlying().(type) {
		case *types.Basic:
			return u.Info()&types.IsFloat != 0
		case *types.Slice:
			typ = u.Elem()
		case *types.Array:
			typ = u.Elem()
		case *types.Map:
			typ = u.Elem()
		case *types.Pointer:
			typ = u.Elem()
		default:
			return false
		}
	}
}

// bind records one resolved annotation under key, checking the target type.
func (t *unitTable) bind(key string, obj types.Object, dim Dim, pos token.Pos) {
	if obj != nil {
		if !floatCarrier(obj.Type()) {
			t.errorf(pos, "//cmosvet:unit on %s, whose type %s is not float-valued", key, obj.Type())
			return
		}
		t.objects[obj] = dim
	}
	t.decls[key] = dim
}

// genDecl binds annotations on struct fields and package consts/vars.
func (t *unitTable) genDecl(d *ast.GenDecl, info *types.Info) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				t.fieldDecl(ts.Name.Name, field, info)
			}
		}
	case token.CONST, token.VAR:
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			ds := directivesIn(vs.Doc)
			ds = append(ds, directivesIn(vs.Comment)...)
			if len(ds) == 0 && len(d.Specs) == 1 {
				ds = directivesIn(d.Doc)
			}
			for _, dir := range ds {
				dim, ok := t.parse(dir)
				if !ok {
					continue
				}
				if dir.name != "" {
					t.errorf(dir.pos, "named //cmosvet:unit %q on a const/var declaration (use the bare form)", dir.name)
					continue
				}
				for _, name := range vs.Names {
					t.bind(name.Name, info.Defs[name], dim, dir.pos)
				}
			}
		}
	}
}

// fieldDecl binds a struct field's annotation, from its trailing comment or
// its doc lines. Key: "Type.Field".
func (t *unitTable) fieldDecl(typeName string, field *ast.Field, info *types.Info) {
	ds := directivesIn(field.Doc)
	ds = append(ds, directivesIn(field.Comment)...)
	for _, dir := range ds {
		dim, ok := t.parse(dir)
		if !ok {
			continue
		}
		if dir.name != "" {
			t.errorf(dir.pos, "named //cmosvet:unit %q on a struct field (use the bare form)", dir.name)
			continue
		}
		for _, name := range field.Names {
			t.bind(typeName+"."+name.Name, info.Defs[name], dim, dir.pos)
		}
	}
}

// funcDecl binds a function's parameter and result annotations from its doc
// comment. Keys: "<declKey>.param.<name>", "<declKey>.return[N]".
func (t *unitTable) funcDecl(fd *ast.FuncDecl, info *types.Info) {
	ds := directivesIn(fd.Doc)
	if len(ds) == 0 {
		return
	}
	key := declKey(fd)
	params := map[string]*ast.Ident{}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				params[n.Name] = n
			}
		}
	}
	var results []*ast.Field
	if fd.Type.Results != nil {
		results = fd.Type.Results.List
	}
	for _, dir := range ds {
		dim, ok := t.parse(dir)
		if !ok {
			continue
		}
		name := dir.name
		if name == "" {
			// Bare form on a function: its single result.
			if numResults(results) != 1 {
				t.errorf(dir.pos, "bare //cmosvet:unit on %s, which does not have exactly one result; name the target (`return`, `returnN` or a parameter)", key)
				continue
			}
			name = "return"
		}
		if idx, ok := resultIndex(name); ok {
			obj, resKey, err := resultAt(results, idx, key)
			if err != "" {
				t.errorf(dir.pos, "%s", err)
				continue
			}
			t.bind(resKey, objOf(info, obj), dim, dir.pos)
			continue
		}
		id, ok := params[name]
		if !ok {
			t.errorf(dir.pos, "//cmosvet:unit names %q, which is neither a parameter of %s nor return/returnN", name, key)
			continue
		}
		t.bind(key+".param."+name, info.Defs[id], dim, dir.pos)
	}
}

func numResults(results []*ast.Field) int {
	n := 0
	for _, f := range results {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// resultIndex parses "return" (0) and "returnN" (N−1); ok is false for
// anything else.
func resultIndex(name string) (int, bool) {
	if name == "return" {
		return 0, true
	}
	rest, found := strings.CutPrefix(name, "return")
	if !found || rest == "" {
		return 0, false
	}
	n := 0
	if _, err := fmt.Sscanf(rest, "%d", &n); err != nil || n < 1 {
		return 0, false
	}
	return n - 1, true
}

// resultAt locates the idx-th result field, returning its name ident (nil
// for anonymous results) and fact key.
func resultAt(results []*ast.Field, idx int, funcKey string) (*ast.Ident, string, string) {
	factKey := funcKey + ".return"
	if idx > 0 {
		factKey = fmt.Sprintf("%s.return%d", funcKey, idx+1)
	}
	i := 0
	for _, f := range results {
		names := f.Names
		if len(names) == 0 {
			if i == idx {
				return nil, factKey, ""
			}
			i++
			continue
		}
		for _, n := range names {
			if i == idx {
				return n, factKey, ""
			}
			i++
		}
	}
	return nil, "", fmt.Sprintf("//cmosvet:unit names result %d of %s, which has only %d", idx+1, funcKey, i)
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	return info.Defs[id]
}
