package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// pinnedResults holds, per "workload policy" cell, the SHA-256 of
// renderExact over the cell's Result at fastCfg. A change that leaves the
// simulated machine bit-identical leaves every hash unchanged; the figure
// goldens round to 3 decimals and cannot show that.
var pinnedResults = map[string]string{
	"MEM2/art+mcf ICOUNT":                      "96c26d32bbc2c7ab750886a3198857b52bc68af147be118c4ff482d4a2d3eb6f",
	"MEM2/art+mcf STALL":                       "496f6b5b66bbb86a4b744253ace18e9d4e9d77cd3a3f65b36683599df7ac0301",
	"MEM2/art+mcf FLUSH":                       "095d885ea1fb657eb6dba1168230f7065460794948fe91a8345a2dd3eb590ca3",
	"MEM2/art+mcf DCRA":                        "63b845f858a349c42feaa2611ae39764fd89300df59c4e78731ce10b5eccc7c6",
	"MEM2/art+mcf HillClimbing":                "0e70c53746670e85a9c7b7618cb4addd287d24b513330322686c4769354c31f1",
	"MEM2/art+mcf RaT":                         "5525fbbaa9fd18dcd9ecbc5a73e4a0299607cb948c11f31e678ee1114be426a0",
	"MEM2/art+mcf RR":                          "170eaa3669a84e427b6436fcca4c3af4be78ffcb143c5e1e79c831df917b62f1",
	"MEM2/art+mcf RaT-noprefetch":              "897ca00917078f60a4d8c70f8cf1bacc81bc3495d9b45be90a8e9478c0bf7f9e",
	"MEM2/art+mcf RaT-nofetch":                 "d8f30eb7030f4a19e5abb49f4ff7f535eac12aa449caca797a7dce44c2d9b136",
	"MEM2/art+mcf RaT-racache":                 "f16f9ac6fd2e3ddb45e7ed2a2df8a61f9941e341b4075f5c75220859f56cca33",
	"MEM2/art+mcf RaT-nofpinv":                 "4018065764acd288680ca81ea60b8666d6aa1431fb6ce9da9c524a4c347fb692",
	"MEM2/art+mcf MLP":                         "7f2ab2b2d0af1019d8b1f544cfbaeff8e191378bf6d3f88fb2832a93dabeffd3",
	"MEM2/art+mcf RaT+DCRA":                    "d915f02c910ce1c5d088a16abe8a3f6c096394441b6c007ea910354c9b257d7f",
	"MIX4/art+gap+twolf+crafty ICOUNT":         "95bf070050ac5b2ea74088db7e80e658dddc4c228089e8e18f12c71e1429c1b0",
	"MIX4/art+gap+twolf+crafty STALL":          "a35bde6ba9f103ab71fae347219bad8f706176a2f7f7a04c9d72ce86d6a70f73",
	"MIX4/art+gap+twolf+crafty FLUSH":          "481df0e3b1cf59e81e03852e818fc3643877b5d85ae7a7cfa51aa662f3ccfba7",
	"MIX4/art+gap+twolf+crafty DCRA":           "20125df2a69526065215d9172a9dcd2ea51be70b61b820a22d3f685ad7114e62",
	"MIX4/art+gap+twolf+crafty HillClimbing":   "1e0e58e1b417fb1c50cffa7cae2e490e0c3089b0e17567ee5cbf78d8ef462a9f",
	"MIX4/art+gap+twolf+crafty RaT":            "77f347bc97e177371c0c68393fed723d28487fe1650cf7417599d0ff93b5b1de",
	"MIX4/art+gap+twolf+crafty RR":             "ce32fa4aa2389507407484e25660801a3fea8ad87b52bd94b2706c7b9c1185c5",
	"MIX4/art+gap+twolf+crafty RaT-noprefetch": "688ac1bccb4d64602e375431518bbd362dbf827244644902390a365a0359ec2f",
	"MIX4/art+gap+twolf+crafty RaT-nofetch":    "1e075d26f2475333393ffad300daac03a0305ee93f11552fa56657df19fe9a21",
	"MIX4/art+gap+twolf+crafty RaT-racache":    "a20f1b2271ca95f80721086e411b33fd0f31073103a74142227201113a81fd1b",
	"MIX4/art+gap+twolf+crafty RaT-nofpinv":    "24d9d8459f1b503367d8d57f26be0f679ef078e85c62540443a8fba18f71d018",
	"MIX4/art+gap+twolf+crafty MLP":            "f438ede351439ca25d194ea79ab7af121660f71ba9d0eed939cff2edbb239c4f",
	"MIX4/art+gap+twolf+crafty RaT+DCRA":       "78b56480eaec8bb7d3e909d26a4c31c362b02bbdb3e2ed53b39a3d9d5f406be8",
	"ILP2/gzip+bzip2 ICOUNT":                   "6132185cbec295ccb35243ac40e9c23bca767661c95f1a04dfdbe73d43de4c75",
	"ILP2/gzip+bzip2 STALL":                    "663b04e4872a6bdaad900a141ae5086eda2bd166eb442fa536dce0b63e011f02",
	"ILP2/gzip+bzip2 FLUSH":                    "58bf8031a16d80b285b58738d964587f5609f8629e3fc0e5c2c6a1ab9765b398",
	"ILP2/gzip+bzip2 DCRA":                     "50dc0c249b1c6a89f5f6c2e45a545ab2325761dcf26dc9fcb9acdc8cc207f356",
	"ILP2/gzip+bzip2 HillClimbing":             "4b80f8685bf888b2038ba10d4ef11b8c33d9ed6abe44944b292d0f0788777592",
	"ILP2/gzip+bzip2 RaT":                      "9b677800f44250e4d18761039582803f3323f73c4d9faab48e3189459f2e8ed5",
	"ILP2/gzip+bzip2 RR":                       "556ac318274f7b6b4331f99db12fb807430b2e871e7c4304aa337d052abf7f7f",
	"ILP2/gzip+bzip2 RaT-noprefetch":           "9b15f636d598b6aea7d5b3f5cb8642ecf6f181df444afaf9c917704632b695f5",
	"ILP2/gzip+bzip2 RaT-nofetch":              "0045d0d8f27070511ad8faf83aa75c9edc59d2729bba1351a506205fa00f61af",
	"ILP2/gzip+bzip2 RaT-racache":              "4e1fd0b5085e18826f697f614661881f55e1d3694432251288e52c0faaae3c83",
	"ILP2/gzip+bzip2 RaT-nofpinv":              "809aeb89ee0ba9978f6ccd9a1636f7687d088ca8f09c820589ef8cb35b2f7c82",
	"ILP2/gzip+bzip2 MLP":                      "37d8c711abdfd8d39b3f8ef4066c4b251b2d67b21f2bb9f1e5dd61ff3f3a3ff0",
	"ILP2/gzip+bzip2 RaT+DCRA":                 "7e71b213768df298c876390b1bee61cef504e4eddf127c99e32e6513af92dcae",
}

// renderExact renders every field of v, recursively: integers in decimal,
// floats as their IEEE-754 bit patterns, strings quoted. Walking the
// struct by reflection means a field added to Result or ThreadResult is
// pinned without editing the renderer.
func renderExact(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		renderExact(b, v.Elem())
	case reflect.Struct:
		b.WriteString("{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			renderExact(b, v.Field(i))
			b.WriteString(" ")
		}
		b.WriteString("}")
	case reflect.Slice:
		b.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			renderExact(b, v.Index(i))
		}
		b.WriteString("]")
	case reflect.String:
		fmt.Fprintf(b, "%q", v.String())
	case reflect.Uint64:
		fmt.Fprintf(b, "%d", v.Uint())
	case reflect.Float64:
		fmt.Fprintf(b, "%016x", math.Float64bits(v.Float()))
	case reflect.Bool:
		fmt.Fprintf(b, "%t", v.Bool())
	default:
		panic("renderExact: unhandled kind " + v.Kind().String())
	}
}

// TestResultsPinnedExactly runs three workloads, one per memory behaviour
// (MEM2, MIX4, ILP2), under every policy kind and compares each Result,
// integers and float bit patterns alike, with the pinned hash.
func TestResultsPinnedExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-result pin")
	}
	workloads := []workload.Workload{
		workload.MustByGroup("MEM2")[1], // art+mcf
		workload.MustByGroup("MIX4")[1], // art+gap+twolf+crafty
		workload.MustByGroup("ILP2")[6], // gzip+bzip2
	}
	for _, w := range workloads {
		for _, p := range AllPolicies() {
			cfg := fastCfg()
			cfg.Policy = p
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name(), p, err)
			}
			var b strings.Builder
			renderExact(&b, reflect.ValueOf(res))
			sum := sha256.Sum256([]byte(b.String()))
			key := w.Name() + " " + string(p)
			if got, want := hex.EncodeToString(sum[:]), pinnedResults[key]; got != want {
				t.Errorf("%s: result hash %s, pinned %s\n%s", key, got, want, b.String())
			}
		}
	}
}
