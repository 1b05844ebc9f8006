package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CLIExit guards the repository's CLI failure contract: every command
// terminates through internal/cli.Main, which prints one line to
// stderr and exits with a defined code — so under cmd/ (or any file
// marked //fairvet:climain) direct os.Exit, log.Fatal*/log.Panic* and
// bare panic calls are forbidden; they would bypass the contract and
// leak stack traces or undocumented exit codes to scripts. Command
// bodies return errors from their run(args, out) function instead.
var CLIExit = &Analyzer{
	Name: "cliexit",
	Doc:  "commands must exit through internal/cli.Main, never os.Exit/log.Fatal/panic",
	Run:  runCLIExit,
}

func runCLIExit(pass *Pass) error {
	inCmd := strings.Contains(pass.Path, "/cmd/") || strings.HasPrefix(pass.Path, "cmd/")
	for _, f := range pass.Files {
		if !inCmd && fileMarker(f, "climain") == nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
						pass.Reportf(call.Pos(), "panic in a command: return an error from run so internal/cli.Main can apply the one-line/exit-code contract")
					}
				}
			case *ast.SelectorExpr:
				switch selectsPackage(pass.TypesInfo, fun) {
				case "os":
					if fun.Sel.Name == "Exit" {
						pass.Reportf(call.Pos(), "os.Exit in a command: exit codes are owned by internal/cli.Main; return an error from run instead")
					}
				case "log":
					switch fun.Sel.Name {
					case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
						pass.Reportf(call.Pos(), "log.%s in a command: it bypasses internal/cli.Main's one-line stderr/exit-code contract; return an error from run instead", fun.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}
