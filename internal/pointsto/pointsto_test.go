package pointsto_test

import (
	"testing"

	"bitc/internal/parser"
	"bitc/internal/pointsto"
	"bitc/internal/types"
)

func analyze(t *testing.T, src string) *pointsto.Result {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	return pointsto.Analyze(prog, info, nil)
}

const header = `(defstruct p (x int64))
`

func kinds(objs []*pointsto.Object) []pointsto.ObjKind {
	var out []pointsto.ObjKind
	for _, o := range objs {
		out = append(out, o.Kind)
	}
	return out
}

func TestGlobalAllocationSite(t *testing.T) {
	r := analyze(t, header+`(define g p (make p :x 1))`)
	objs := r.GlobalObjects("g")
	if len(objs) != 1 {
		t.Fatalf("GlobalObjects(g) = %v", objs)
	}
	o := objs[0]
	if o.Kind != pointsto.ObjStruct || o.TypeName != "p" {
		t.Errorf("object = %v %q", o.Kind, o.TypeName)
	}
	if got := r.GlobalsOf(o); len(got) != 1 || got[0] != "g" {
		t.Errorf("GlobalsOf = %v", got)
	}
	if !r.GlobalReachable(o) {
		t.Error("global allocation not marked global-reachable")
	}
}

func TestInterproceduralReturnFlow(t *testing.T) {
	r := analyze(t, header+`
	  (define g p (make p :x 1))
	  (define (mk) p (make p :x 2))
	  (define (pick (c bool)) p (if c g (mk)))`)
	objs := r.RetObjects("pick")
	if len(objs) != 2 {
		t.Fatalf("RetObjects(pick) = %v (kinds %v)", objs, kinds(objs))
	}
	fns := map[string]bool{}
	for _, o := range objs {
		fns[o.Fn] = true
	}
	// One object is the global's ("" function), the other mk's.
	if !fns[""] || !fns["mk"] {
		t.Errorf("allocation functions = %v", fns)
	}
}

func TestFieldFlow(t *testing.T) {
	r := analyze(t, header+`
	  (defstruct box (inner p))
	  (define b box (make box :inner (make p :x 3)))
	  (define (get) p (field b inner))`)
	objs := r.RetObjects("get")
	if len(objs) != 1 || objs[0].Kind != pointsto.ObjStruct || objs[0].TypeName != "p" {
		t.Fatalf("RetObjects(get) = %v", objs)
	}
	if !r.GlobalReachable(objs[0]) {
		t.Error("inner object not global-reachable through the box")
	}
}

func TestVectorAndChannelElementFlow(t *testing.T) {
	r := analyze(t, header+`
	  (define (roundtrip) p
	    (let ((v (make-vector 4 (make p :x 1))))
	      (vector-set! v 0 (make p :x 2))
	      (vector-ref v 1)))
	  (define (chanflow) p
	    (let ((c (make-chan 1)))
	      (send c (make p :x 9))
	      (recv c)))`)
	if objs := r.RetObjects("roundtrip"); len(objs) != 2 {
		t.Errorf("RetObjects(roundtrip) = %v: want both the init and stored element", objs)
	}
	objs := r.RetObjects("chanflow")
	if len(objs) != 1 || objs[0].TypeName != "p" {
		t.Errorf("RetObjects(chanflow) = %v", objs)
	}
}

func TestRegionTagging(t *testing.T) {
	r := analyze(t, header+`
	  (define (leak) p
	    (with-region r (alloc-in r (make p :x 1))))`)
	objs := r.RetObjects("leak")
	if len(objs) != 1 {
		t.Fatalf("RetObjects(leak) = %v", objs)
	}
	if objs[0].Region == 0 || objs[0].RegionSrc != "r" {
		t.Errorf("region tag = %d (src %q)", objs[0].Region, objs[0].RegionSrc)
	}
}

func TestAliasedFieldLoadUnifies(t *testing.T) {
	r := analyze(t, header+`
	  (define g p (make p :x 1))
	  (define (reader) int64
	    (let ((h g))
	      (field h x)))`)
	o := r.GlobalObjects("g")[0]
	if !r.FieldLoaded(o, "x") {
		t.Error("load through the aliased handle not recorded on the object")
	}
	if r.FieldLoaded(o, "y") {
		t.Error("unread field reported loaded")
	}
}

func TestConfinedObjectNotLeaked(t *testing.T) {
	r := analyze(t, header+`
	  (define (f) int64
	    (let ((m (make p :x 1)))
	      (field m x)))`)
	var obj *pointsto.Object
	for _, o := range r.Objects() {
		if o.Fn == "f" && o.Kind == pointsto.ObjStruct {
			obj = o
		}
	}
	if obj == nil {
		t.Fatal("allocation in f not modelled")
	}
	if r.Leaked(obj) || r.GlobalReachable(obj) {
		t.Errorf("confined object marked leaked=%v globalReachable=%v",
			r.Leaked(obj), r.GlobalReachable(obj))
	}
}

func TestExternalCallLeaks(t *testing.T) {
	r := analyze(t, header+`
	  (external stash (-> (p) unit) "stash")
	  (define (f) unit
	    (let ((m (make p :x 1)))
	      (stash m)))`)
	var obj *pointsto.Object
	for _, o := range r.Objects() {
		if o.Fn == "f" && o.Kind == pointsto.ObjStruct {
			obj = o
		}
	}
	if obj == nil {
		t.Fatal("allocation in f not modelled")
	}
	if !r.Leaked(obj) {
		t.Error("object passed to an external not marked leaked")
	}
}

func TestSpawnedCalleeTrackedNotLeaked(t *testing.T) {
	// A spawn whose body is a call to a *known* function stays inside the
	// analysed world: the argument flows to the callee's parameter, it does
	// not leak.
	r := analyze(t, header+`
	  (define (use (m p)) int64 (field m x))
	  (define (f) int64
	    (let ((m (make p :x 1)))
	      (let ((t (spawn (use m))))
	        (join t)
	        (field m x))))`)
	var obj *pointsto.Object
	for _, o := range r.Objects() {
		if o.Fn == "f" && o.Kind == pointsto.ObjStruct {
			obj = o
		}
	}
	if obj == nil {
		t.Fatal("allocation in f not modelled")
	}
	if r.Leaked(obj) {
		t.Error("argument to a known spawned callee marked leaked")
	}
	if got := r.VarObjects("use", 0); got != nil {
		t.Logf("unexpected lookup of binding number 0: %v", got)
	}
}

func TestLifetimeUseAfterExit(t *testing.T) {
	prog, diags := parser.Parse("t.bitc", header+`
	  (define (f) int64
	    (let ((mutable keep (make p :x 0)))
	      (with-region r
	        (set! keep (alloc-in r (make p :x 1))))
	      (field keep x)))`)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	r := pointsto.Analyze(prog, info, nil)
	lt := pointsto.CheckLifetimes(prog, info, r)
	if len(lt.Uses) != 1 {
		t.Fatalf("Uses = %v", lt.Uses)
	}
	u := lt.Uses[0]
	if u.Fn != "f" || u.Region != "r" || u.Alloc == nil {
		t.Errorf("use-after-exit = %+v", u)
	}
}
