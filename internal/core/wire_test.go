package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// TestWireMessagesMatchDispatch holds WireMessages to the two receive
// switches (Server.recv and Peer.recv): every type one of them handles is on
// the wire list, and every listed type is handled. A message type deleted
// from one place but not the other would leave a code the socket runtime
// still assigns, or a handler nothing can reach over a socket.
func TestWireMessagesMatchDispatch(t *testing.T) {
	handled := map[string]bool{}
	var dispatched []string // case types in source order
	for _, file := range []string{"peer.go", "server.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		switches := 0
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			as, ok := ts.Assign.(*ast.AssignStmt)
			if !ok || types.ExprString(as.Lhs[0]) != "m" || types.ExprString(as.Rhs[0].(*ast.TypeAssertExpr).X) != "msg" {
				return true
			}
			switches++
			for _, stmt := range ts.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					if id, ok := e.(*ast.Ident); ok {
						handled[id.Name] = true
						dispatched = append(dispatched, id.Name)
					}
				}
			}
			return true
		})
		if switches != 1 {
			t.Fatalf("%s: %d `switch m := msg.(type)` statements, want 1", file, switches)
		}
	}

	listed := map[string]bool{}
	for _, m := range WireMessages() {
		name := reflect.TypeOf(m).Name()
		if listed[name] {
			t.Errorf("WireMessages lists %s twice", name)
		}
		listed[name] = true
		if !handled[name] {
			t.Errorf("%s is in WireMessages but no receive switch handles it", name)
		}
	}
	for _, name := range dispatched {
		if !listed[name] {
			t.Errorf("%s is dispatched but missing from WireMessages", name)
		}
	}
}
