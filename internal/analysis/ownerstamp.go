package analysis

import (
	"go/ast"
	"go/types"
)

// ownerStampType is the request type whose construction must make
// requester identity explicit.
const ownerStampType = "repro/internal/device.Request"

// stampingSinks are methods that stamp Owner centrally: a literal
// handed directly to one of these is filled with the Owner of the
// process the event loop is running (vfs.stampOwner with
// sim.EventLoop.Running), a protocol pinned by
// TestEventModeOwnerSurvivesPark and TestEventModeOwnerAtEveryPark.
// Naming them here keeps the exemption reviewable — a new submission
// path must either stamp at the literal or earn its place in this
// list.
var stampingSinks = map[string]bool{
	"submitSync":  true,
	"submitAsync": true,
}

// OwnerStamp flags a device.Request composite literal that omits the
// Owner field outside internal/device itself. An unstamped request
// silently becomes OwnerNone: CFQ then schedules it in the wrong
// per-owner queue and fairness accounting attributes its wait to
// nobody. Constructing a request forces the question "on whose
// behalf?"; answer it in the literal, hand the literal straight to a
// stamping sink, or annotate why identity cannot apply.
var OwnerStamp = &Analyzer{
	Name: "ownerstamp",
	Doc:  "device.Request literals outside internal/device must set Owner (or flow directly into a stamping sink)",
	Scope: func(pkgPath string) bool {
		return pkgPath != "repro/internal/device"
	},
	Run: runOwnerStamp,
}

func runOwnerStamp(p *Pass) {
	for _, f := range p.Files {
		// Literals that are direct arguments to a stamping sink.
		exempt := map[*ast.CompositeLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !stampingSinks[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.CompositeLit); ok {
					exempt[lit] = true
				}
				if un, ok := arg.(*ast.UnaryExpr); ok {
					if lit, ok := un.X.(*ast.CompositeLit); ok {
						exempt[lit] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || exempt[lit] {
				return true
			}
			t := p.Info.TypeOf(lit)
			if t == nil {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			if named.Obj().Pkg().Path()+"."+named.Obj().Name() != ownerStampType {
				return true
			}
			if literalSetsField(lit, "Owner") {
				return true
			}
			p.Reportf(lit.Pos(), "device.Request literal without Owner: the request will run as OwnerNone, invisible to CFQ and fairness accounting — set Owner explicitly or submit through a stamping path")
			return true
		})
	}
}

// literalSetsField reports whether a composite literal assigns the
// named field, either keyed or positionally (a positional struct
// literal must list every field, so any elements means all set).
func literalSetsField(lit *ast.CompositeLit, field string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: Go requires all fields present.
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}
