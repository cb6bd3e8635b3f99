package skeletonhunter

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow lists the package-level symbols under internal/ that
// no non-test code references but that are kept on purpose, keyed
// "<package path below internal/>.<Name>" or "<pkg>.<Type>.<Method>".
// Every entry must still exist and must still be unreferenced: a stale
// entry fails the test just like a new unreferenced symbol does.
var deadcodeAllow = map[string]string{
	// Observers: kept tests in other packages read runtime state through these.
	"controller.Controller.Registered":         "probe tests observe agent registration",
	"controller.Controller.Registrations":      "hunter crash tests compare registrations across recovery",
	"controller.Controller.StaleRegistrations": "hunter crash tests observe stale leases after recovery",
	"cluster.ControlPlane.HostCordoned":        "hunter remedy tests observe cordons",
	"cluster.ControlPlane.CordonedHosts":       "hunter remedy tests observe cordons",
	"cluster.ControlPlane.FreeHosts":           "hunter tests observe host release",
	"transport.Server.NumConns":                "retry tests observe connection accounting",
	"transport.Server.IdleCloses":              "retry tests observe idle-connection reaping",
	"transport.Server.RejectedConns":           "retry tests observe admission rejections",
	"transport.Server.ReplayDrops":             "retry tests observe deduplicated replays",
	"hunter.Deployment.LastCheckpoint":         "crash tests read the last checkpoint image",
	"analyzer.Analyzer.Blacklisted":            "hunter tests observe blacklisting",
	"incident.Correlator.Incident":             "hunter incident tests look up one incident",
	"netsim.Net.TransportConfig":               "scenario tests observe the transport model",
	"sim.Engine.Run":                           "sim tests drive the engine to exhaustion",
	"sim.Engine.Pending":                       "sim and remedy tests observe the event queue",
	"logstore.Store.Len":                       "hunter crash tests observe ring fill",
	"overlay.VSwitch.Len":                      "faults and cluster tests observe flow-table size",
	"probe.OverlayAgent.Rounds":                "hunter telemetry tests observe agent liveness",

	// Oracles: tests check the production path against these.
	"topology.Fabric.Paths":             "reference ECMP enumeration for the PathView property tests",
	"controller.Snapshot.Fingerprint":   "checkpoint round-trip oracle",
	"overlay.Network.CorruptEntry":      "overlay mutator driving TestTraceCacheDifferential",
	"overlay.Network.InvalidateOffload": "overlay mutator driving TestTraceCacheDifferential",
	"overlay.Network.RemoveEntry":       "overlay mutator driving TestTraceCacheDifferential",
	"overlay.Network.SetOffloaded":      "overlay mutator driving TestTraceCacheDifferential",
	"scenario.EncodeSchedule":           "schedule codec round-tripped by FuzzDecodeSchedule",
	"scenario.DecodeSchedule":           "schedule codec behind FuzzDecodeSchedule",

	// Paper artefacts and wire ops reached only from tests and benchmarks.
	"hunter.Deployment.OverrideWorkload":   "§7.3 workload-change experiment",
	"hunter.Deployment.RevalidateSkeleton": "§7.3 skeleton revalidation",
	"transport.Client.Epoch":               "wire-protocol client op",
	"transport.Client.Deregister":          "wire-protocol client op",
	"transport.Client.Stats":               "wire-protocol client op",
}

// TestNoUnreferencedExports type-checks every non-test package of the
// module and fails on any package-level func, method, type, var or
// const under internal/, exported or not, that no non-test code
// references outside its own declaration. A method that makes its type satisfy an interface
// declared or used by the program counts as referenced.
func TestNoUnreferencedExports(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	unused := prog.unreferencedExports()
	for _, key := range sortedKeys(unused) {
		if _, ok := deadcodeAllow[key]; !ok {
			t.Errorf("%s: %s is referenced by no non-test code; delete it or allowlist it with a reason", prog.fset.Position(unused[key]), key)
		}
	}
	for _, key := range sortedKeys(deadcodeAllow) {
		if deadcodeAllow[key] == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if _, ok := unused[key]; ok {
			continue
		}
		if prog.exports[key] {
			t.Errorf("allowlist entry %s is now referenced; drop it from the list", key)
		} else {
			t.Errorf("allowlist entry %s no longer exists; drop it from the list", key)
		}
	}
}

// unsetFieldAllow lists the config fields, keyed "<package path below
// internal/>.<Type>.<Field>", that no non-test code writes but that are
// kept on purpose. Like deadcodeAllow, a stale entry fails the test.
var unsetFieldAllow = map[string]string{
	// Ablation switches: benchmarks and tests flip them to show what
	// each design choice buys.
	"detect.Config.ZThreshold":            "long-term ablation: BenchmarkAblationLongTerm disables the Z-test",
	"detect.Config.LOFThreshold":          "detect tests disable the short-term window to isolate the long-term one",
	"skeleton.Options.TimeDomainFeatures": "STFT ablation: BenchmarkAblationSTFT and TestAblationTimeDomainWorseThanSTFT",
	"skeleton.Options.Unconstrained":      "constraint ablation: BenchmarkAblationConstraints",

	// Clocks and caps that tests shorten or shrink to reach an edge.
	"incident.Config.QuietWindow":              "incident tests set the flap clock",
	"incident.Config.EvidenceWindow":           "incident tests narrow the evidence window",
	"incident.Config.MaxEvidenceRecords":       "incident tests shrink or disable the evidence cap",
	"incident.Config.MaxEvidenceNotes":         "incident tests shrink the note cap",
	"apiserver.Config.MaxWatchers":             "watch tests shrink the watcher cap to force shedding",
	"apiserver.Config.WatchBacklog":            "watch tests shrink the backlog to force 410 Gone",
	"transport.ServerConfig.IdleTimeout":       "retry tests shorten the idle timeout to observe reaping",
	"transport.ServerConfig.MaxConns":          "retry tests shrink the connection cap to force rejection",
	"transport.Config.Retry":                   "retry tests shorten the backoff schedule",
	"transport.RetryPolicy.RetryNonIdempotent": "retry tests opt non-idempotent ops into retry",

	// Deployment wiring that tests arm.
	"hunter.Options.API":       "incident API tests raise the read plane's rate limits on a deployment",
	"hunter.Options.Incidents": "incident tests tune the correlator a deployment builds",
}

// TestNoUnsetConfigFields fails on any exported field of an exported
// struct under internal/ whose name ends in Config, Options or Policy
// that no non-test code writes outside its type's withDefaults: a field
// only one value reaches is a constant, not a knob. A write is a
// composite-literal element, an assignment or increment through a
// selector, or taking the field's address (flag.IntVar and friends).
func TestNoUnsetConfigFields(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	fields, written := prog.configFieldWrites()
	for _, key := range sortedKeys(fields) {
		if written[key] {
			continue
		}
		if _, ok := unsetFieldAllow[key]; !ok {
			t.Errorf("%s: %s is written by no non-test code outside withDefaults; make it a constant or allowlist it with a reason", prog.fset.Position(fields[key]), key)
		}
	}
	for _, key := range sortedKeys(unsetFieldAllow) {
		if unsetFieldAllow[key] == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if _, ok := fields[key]; !ok {
			t.Errorf("allowlist entry %s no longer exists; drop it from the list", key)
		} else if written[key] {
			t.Errorf("allowlist entry %s is now written; drop it from the list", key)
		}
	}
}

// configFieldWrites returns the declaring position of every exported
// field of an exported *Config, *Options or *Policy struct under
// internal/, and the set of those fields some non-test code writes
// outside the owning type's withDefaults method.
func (p *program) configFieldWrites() (map[string]token.Pos, map[string]bool) {
	fields := map[string]token.Pos{}
	keyOf := map[*types.Var]string{}
	owner := map[string]*types.TypeName{}
	for _, lp := range p.pkgs {
		scope := lp.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			k := p.key(tn)
			st, ok := tn.Type().Underlying().(*types.Struct)
			if k == "" || !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[k+"."+f.Name()] = f.Pos()
					keyOf[f] = k + "." + f.Name()
					owner[k+"."+f.Name()] = tn
				}
			}
		}
	}

	written := map[string]bool{}
	for _, lp := range p.pkgs {
		// mark records a write to the field v unless it sits in the
		// owning type's withDefaults.
		mark := func(v types.Object, in *ast.FuncDecl) {
			f, ok := v.(*types.Var)
			if !ok {
				return
			}
			k, ok := keyOf[f]
			if !ok {
				return
			}
			if in != nil && in.Name.Name == "withDefaults" && in.Recv != nil {
				if named := receiverNamed(lp.info.Types[in.Recv.List[0].Type].Type); named != nil && named.Obj() == owner[k] {
					return
				}
			}
			written[k] = true
		}
		// target marks every field selected on the way to an
		// assignment's operand: a.B.C = x writes both B and C.
		var target func(e ast.Expr, in *ast.FuncDecl)
		target = func(e ast.Expr, in *ast.FuncDecl) {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				mark(lp.info.Uses[x.Sel], in)
				target(x.X, in)
			case *ast.IndexExpr:
				target(x.X, in)
			case *ast.StarExpr:
				target(x.X, in)
			case *ast.ParenExpr:
				target(x.X, in)
			}
		}
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				in, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							target(lhs, in)
						}
					case *ast.IncDecStmt:
						target(x.X, in)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							target(x.X, in)
						}
					case *ast.CompositeLit:
						st, ok := lp.info.Types[x].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								mark(lp.info.Uses[kv.Key.(*ast.Ident)], in)
							} else {
								mark(st.Field(i), in)
							}
						}
					}
					return true
				})
			}
		}
	}
	return fields, written
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type program struct {
	fset   *token.FileSet
	module string
	pkgs   map[string]*loadedPkg // by import path
	std    types.Importer
	// exports holds the key of every package-level symbol under
	// internal/.
	exports map[string]bool
}

type loadedPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
	busy  bool
}

// loadProgram parses the non-test files of every package below root and
// type-checks them, resolving module imports to the packages parsed here
// so that a use in one package and a declaration in another share one
// types.Object.
func loadProgram(root string) (*program, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*loadedPkg{},
		exports: map[string]bool{},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			p.module = f[1]
		}
	}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		lp := &loadedPkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			lp.files = append(lp.files, f)
		}
		if len(lp.files) > 0 {
			p.pkgs[p.importPath(path)] = lp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range sortedKeys(p.pkgs) {
		if _, err := p.check(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *program) importPath(dir string) string {
	dir = filepath.ToSlash(filepath.Clean(dir))
	if dir == "." {
		return p.module
	}
	return p.module + "/" + dir
}

func (p *program) Import(path string) (*types.Package, error) {
	if _, ok := p.pkgs[path]; ok {
		return p.check(path)
	}
	return p.std.Import(path)
}

func (p *program) check(path string) (*types.Package, error) {
	lp := p.pkgs[path]
	if lp.types != nil || lp.err != nil {
		return lp.types, lp.err
	}
	if lp.busy {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	lp.busy = true
	lp.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	lp.types, lp.err = conf.Check(path, p.fset, lp.files, lp.info)
	return lp.types, lp.err
}

// key names a package-level object or method of a package-level type
// under internal/, or returns "" for anything else (blank names and
// package init functions included).
func (p *program) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	prefix := p.module + "/internal/"
	if !strings.HasPrefix(obj.Pkg().Path(), prefix) {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), prefix)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := receiverNamed(recv.Type())
			if named == nil || named.Obj().Parent() != obj.Pkg().Scope() {
				return "" // method of an unnamed interface
			}
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
		if fn.Name() == "init" {
			return "" // run by the runtime, never referenced
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // field, parameter or local
	}
	return pkg + "." + obj.Name()
}

func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// unreferencedExports returns the declaring position of every
// package-level symbol under internal/ that no non-test code
// references.
func (p *program) unreferencedExports() map[string]token.Pos {
	decls := map[string]token.Pos{}
	// extent is the source range of a symbol's own declaration, inside
	// which a reference does not count (recursion, a type's own
	// receivers).
	extent := map[string][]ast.Node{}
	var methods []*types.Func
	for _, lp := range p.pkgs {
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := lp.info.Defs[d.Name]
					if k := p.key(obj); k != "" {
						decls[k] = obj.Pos()
						extent[k] = append(extent[k], d)
						if d.Recv != nil {
							methods = append(methods, obj.(*types.Func))
						}
					}
					if d.Recv != nil {
						// A method's receiver list does not reference its type.
						if named := receiverNamed(lp.info.Types[d.Recv.List[0].Type].Type); named != nil {
							if k := p.key(named.Obj()); k != "" {
								extent[k] = append(extent[k], d.Recv)
							}
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if k := p.key(lp.info.Defs[s.Name]); k != "" {
								decls[k] = s.Name.Pos()
								extent[k] = append(extent[k], s)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if k := p.key(lp.info.Defs[name]); k != "" {
									decls[k] = name.Pos()
									extent[k] = append(extent[k], s)
								}
							}
						}
					}
				}
			}
		}
	}
	for k := range decls {
		p.exports[k] = true
	}

	referenced := map[string]bool{}
	for _, lp := range p.pkgs {
		for id, obj := range lp.info.Uses {
			k := p.key(origin(obj))
			if k == "" || referenced[k] {
				continue
			}
			inside := false
			for _, n := range extent[k] {
				if n.Pos() <= id.Pos() && id.Pos() < n.End() {
					inside = true
					break
				}
			}
			if !inside {
				referenced[k] = true
			}
		}
	}

	ifaces := p.interfaces()
	for _, m := range methods {
		k := p.key(m)
		if referenced[k] {
			continue
		}
		named := receiverNamed(m.Type().(*types.Signature).Recv().Type())
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				referenced[k] = true
				break
			}
		}
	}

	unused := map[string]token.Pos{}
	for k, pos := range decls {
		if !referenced[k] {
			unused[k] = pos
		}
	}
	return unused
}

// interfaces returns every non-empty interface the program can call
// through: those its non-test code spells out, plus those declared by
// the packages it imports (fmt.Stringer, sort.Interface, io.Writer...),
// which the standard library calls on the program's behalf.
func (p *program) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if t == nil {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || seen[iface] {
			return
		}
		seen[iface] = true
		out = append(out, iface)
	}
	add(types.Universe.Lookup("error").Type())
	for _, lp := range p.pkgs {
		for _, tv := range lp.info.Types {
			add(tv.Type)
		}
		for _, imp := range lp.types.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return out
}
