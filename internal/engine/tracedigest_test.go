package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	skip "github.com/skipsim/skip"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// digester hashes values field by field, never through formatted text,
// so a digest does not depend on how a host rounds a float for output.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) num(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) str(s string) {
	d.num(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) time(t sim.Time) { d.num(uint64(t)) }

func (d *digester) float(f float64) { d.num(math.Float64bits(f)) }

// strMap hashes a string map in key order.
func (d *digester) strMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.num(uint64(len(keys)))
	for _, k := range keys {
		d.str(k)
		d.str(m[k])
	}
}

// trace hashes every event's fields in trace order, then Meta and
// Threads.
func (d *digester) trace(tr *trace.Trace) {
	d.num(uint64(len(tr.Events)))
	for i := range tr.Events {
		e := &tr.Events[i]
		d.str(e.Name)
		d.str(string(e.Cat))
		d.time(e.Ts)
		d.time(e.Dur)
		d.num(uint64(e.TID))
		d.num(e.Correlation)
		d.num(uint64(e.Stream))
		d.float(e.FLOPs)
		d.float(e.Bytes)
		d.num(uint64(e.Req))
	}
	d.strMap(tr.Meta)
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	d.num(uint64(len(tids)))
	for _, tid := range tids {
		d.num(uint64(tid))
		d.str(tr.Threads[tid])
	}
}

// result hashes a run's trace and its reported counters.
func (d *digester) result(r *engine.Result) {
	d.trace(r.Trace)
	d.time(r.TTFT)
	d.num(uint64(r.HostLaunches))
	d.num(uint64(r.KernelCount))
	d.time(r.GPUBusy)
	d.time(r.CPUBusy)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// traceDigestGrid runs every execution path the pins cover and returns
// one digest per run:
//   - Run in every mode on every catalog platform, for llama-3.2-1B and
//     bert-base-uncased at batch 1 and 16, seq 128;
//   - RunFused under both applications at L = 2 and 4, same models and
//     platforms, batch 1;
//   - RunGenerate in eager and flash for llama-3.2-1B on every platform,
//     batch 2, seq 64, 4 new tokens;
//   - MeasureNullKernel on every platform, 50 launches.
func traceDigestGrid(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(key string, d *digester) {
		t.Helper()
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate digest key %q", key)
		}
		out[key] = d.sum()
	}
	ms := []*models.Config{models.Llama32_1B(), models.BertBaseUncased()}
	for _, name := range hw.PlatformNames() {
		p, err := hw.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			for _, mode := range engine.Modes() {
				for _, bs := range []int64{1, 16} {
					res, err := engine.Run(engine.Request{Platform: p, Model: m, Batch: bs, Seq: 128, Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					d := newDigester()
					d.result(res)
					add(fmt.Sprintf("run/%s/%s/%v/bs%d", name, m.Name, mode, bs), d)
				}
			}
			for _, app := range []engine.FusionApplication{engine.LaunchSavingsOnly, engine.FullRegionFusion} {
				for _, l := range []int{2, 4} {
					fr, err := engine.RunFused(engine.Request{Platform: p, Model: m, Batch: 1, Seq: 128, Mode: engine.Eager}, l, app)
					if err != nil {
						t.Fatal(err)
					}
					d := newDigester()
					d.result(fr.Result)
					d.num(uint64(fr.ChainLength))
					d.num(uint64(fr.FusedInstances))
					d.num(uint64(fr.LaunchesSaved))
					add(fmt.Sprintf("fused/%s/%s/%v/L%d", name, m.Name, app, l), d)
				}
			}
		}
		for _, mode := range []engine.Mode{engine.Eager, engine.Flash} {
			gr, err := engine.RunGenerate(engine.Request{Platform: p, Model: models.Llama32_1B(), Batch: 2, Seq: 64, Mode: mode}, 4)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigester()
			d.trace(gr.Trace)
			for _, v := range []sim.Time{gr.TTFT, gr.DecodeTime, gr.Total, gr.TPOT, gr.PrefillGPUBusy, gr.DecodeGPUBusy} {
				d.time(v)
			}
			d.num(uint64(gr.PrefillKernels))
			d.num(uint64(gr.DecodeKernelsPerStep))
			add(fmt.Sprintf("generate/%s/%v", name, mode), d)
		}
		nk := skip.MeasureNullKernel(p, 50)
		d := newDigester()
		d.str(nk.Platform)
		d.float(nk.LaunchOverheadNs)
		d.float(nk.DurationNs)
		add("nullkernel/"+name, d)
	}
	return out
}

// TestTraceDigestsPinned: every trace the executor emits, and the
// counters reported with it, hash to the digests recorded before the
// launch model was rewritten, so the rewrite moved no event, timestamp,
// correlation id or cost. Set SKIP_PRINT_TRACE_DIGESTS=1 to print the
// table.
func TestTraceDigestsPinned(t *testing.T) {
	got := traceDigestGrid(t)
	if os.Getenv("SKIP_PRINT_TRACE_DIGESTS") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("\n%s", sb.String())
	}
	if len(got) != len(pinnedTraceDigests) {
		t.Errorf("grid has %d runs, %d pinned", len(got), len(pinnedTraceDigests))
	}
	for key, want := range pinnedTraceDigests {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: pinned but not run", key)
		} else if g != want {
			t.Errorf("%s: digest %s, want %s", key, g, want)
		}
	}
}

// pinnedTraceDigests were recorded from the executor built on the
// stepped CUDA runtime (a host clock and one busy-until timeline per
// stream).
var pinnedTraceDigests = map[string]string{
	"fused/AMD+A100/bert-base-uncased/full-region/L2":               "d74342373e0b9492634686fd5d568e59b7bf1b0b9d7110bde7e0124969518114",
	"fused/AMD+A100/bert-base-uncased/full-region/L4":               "40c4be8b337362eed30ebde440b9f8161e0fca4cf0d698379d4e70e84a372aa4",
	"fused/AMD+A100/bert-base-uncased/launch-savings-only/L2":       "33e138bea0bd36c8581461f5caf7c2876e911524d205e2dc7cebb5f0b073daf4",
	"fused/AMD+A100/bert-base-uncased/launch-savings-only/L4":       "aca686b35d94df1fda38921ff67e743ab63bf17a08f94e660bab42a0ce7deb21",
	"fused/AMD+A100/llama-3.2-1B/full-region/L2":                    "11524bd065822611eefe7003b0486807eb048b13a27ccd1b986a9ff932d12ed6",
	"fused/AMD+A100/llama-3.2-1B/full-region/L4":                    "ab079cced3f8d7e876b5e198819b1f92f8cb2c4d18bfa875fac8e4dd540f9e09",
	"fused/AMD+A100/llama-3.2-1B/launch-savings-only/L2":            "9d5edd1ac3097c37ca56c5d69f087afdbbf3464d338e26972fb29ab3271eb4cd",
	"fused/AMD+A100/llama-3.2-1B/launch-savings-only/L4":            "cb1cd7fdc72300f211e763abecefc9dd0ef691a53c4f02e1109749e82a2d82a1",
	"fused/GH200/bert-base-uncased/full-region/L2":                  "69ac3739951a1ec0c95564dd6a57fa297ae1c0ed2aa949ccadcbe1cde82f1406",
	"fused/GH200/bert-base-uncased/full-region/L4":                  "a6286283188ad72c841f7ff1b05ed208b7bf6d9827b49328746c191abc1fbe46",
	"fused/GH200/bert-base-uncased/launch-savings-only/L2":          "3176ecc5055691d3aec4c7f999abc049d8940f295dcaa789d7b7e0875b3a6c62",
	"fused/GH200/bert-base-uncased/launch-savings-only/L4":          "96e1ed0905440891d6fcee86d33dd9198cd6b3299553e2439a3282b54b047cf4",
	"fused/GH200/llama-3.2-1B/full-region/L2":                       "a1358fd02d73b9fafefb1a797becc3208c584e3be29454e768f2ff40224e4e30",
	"fused/GH200/llama-3.2-1B/full-region/L4":                       "922d192cf00f89ba52b50107723a24d4a108ce1ad07331e7b376ad1e4d1d897e",
	"fused/GH200/llama-3.2-1B/launch-savings-only/L2":               "df22042d7f350651ba074307fa7f451536069e9289ef46448e7e665788b34e92",
	"fused/GH200/llama-3.2-1B/launch-savings-only/L4":               "20a8575458171fe38095d84575a3c338fa098c8560f75b73f40442d69007941e",
	"fused/Intel+H100/bert-base-uncased/full-region/L2":             "45331b0725639a060c9fbd5dd3fcde4a47c493fa119fc7e675fa11d6e85c3885",
	"fused/Intel+H100/bert-base-uncased/full-region/L4":             "de51fd19d2ab29beee2c6c0fc04956324297ac2ca3dd246853aee09c7106f2e7",
	"fused/Intel+H100/bert-base-uncased/launch-savings-only/L2":     "dbd2e0eea2e91c86a96479082ed85d166da983514f22a5903fbe04376a486556",
	"fused/Intel+H100/bert-base-uncased/launch-savings-only/L4":     "b61e7dff3436740b7f49062335e74212b8c4bfd98e3dec4c94a140f4c8e42956",
	"fused/Intel+H100/llama-3.2-1B/full-region/L2":                  "dba4b154353fa9a29698ce0d0afd6763804864c567147a17a9727d644302a091",
	"fused/Intel+H100/llama-3.2-1B/full-region/L4":                  "d25103bdf84b395d160d6b87a5e5b6159e221389e3e9b6968db9c8399c86fcad",
	"fused/Intel+H100/llama-3.2-1B/launch-savings-only/L2":          "d3ecba190efe1c030d74a596d3d1f8e2069c8cd79434e420ad606a0071483b15",
	"fused/Intel+H100/llama-3.2-1B/launch-savings-only/L4":          "d59dd2cdc7f56f34652faea6fa423d79cde9175d0ba8af2cb646459eb90ed3cd",
	"fused/MI300A/bert-base-uncased/full-region/L2":                 "3d9e89446b8b37eaa4b59d04fc59764762e2fcf2f5d06ad17ee966fc3eeaa128",
	"fused/MI300A/bert-base-uncased/full-region/L4":                 "b8d8462370ded5bc97f055d61760b2d863838489247e3e149fb48490adcc6db1",
	"fused/MI300A/bert-base-uncased/launch-savings-only/L2":         "0d30225b1c031fd353a5522b167bbcd2a71435d75b1ab6a45ab292b06268ec3b",
	"fused/MI300A/bert-base-uncased/launch-savings-only/L4":         "0417a1d6cf07dfd9aae680e4e402ca29f908ef09fd0c0b26404c9241765b93dd",
	"fused/MI300A/llama-3.2-1B/full-region/L2":                      "94db0ec8cecca85041fb418e38c09f8dc84732c55a8b77e023cd89f67e1ee69f",
	"fused/MI300A/llama-3.2-1B/full-region/L4":                      "9dcf72c3972e37f21fa1a751e56ec2eac0248176bcb18d56e91f6819ae38d1fe",
	"fused/MI300A/llama-3.2-1B/launch-savings-only/L2":              "282aa98b8e81f5c8ebf75f3a0d8dea36d749101c38c550b39ca61255771a6e2e",
	"fused/MI300A/llama-3.2-1B/launch-savings-only/L4":              "47655ceb8971512823239d35507d82ab6a4953182c51c3035c962ffc356d3f9d",
	"generate/AMD+A100/eager":                                       "46aa0f2889a2e50ae4fea8d63a8a43eea9c745536995e4175654bfaebe996ce0",
	"generate/AMD+A100/flash_attention_2":                           "18ed8dea0f2b750bfd8594466396c31412223ac9f03f166cbb91582168bf1dc6",
	"generate/GH200/eager":                                          "73f98ed6d129d34c80f39765c309ae43be1862e97c523ca76a9e093e280cdee1",
	"generate/GH200/flash_attention_2":                              "de8ee3ef44b1fc8de4b51b5bd8d835fe971cfdb10be45e54233b98935e6ecf1f",
	"generate/Intel+H100/eager":                                     "4805bcbd7c4ae3bf8b712117ea9f4e18c82200ba027e60b1f69dc1d9f51d4576",
	"generate/Intel+H100/flash_attention_2":                         "949d74eb3cdbafc6e2859e371096c3c62e5ba8026ef030766be5036e6fb04014",
	"generate/MI300A/eager":                                         "9cf23f82668440e36630351d0595b6e67a6f6ecd1ec27333ae0e834cb84ec3d4",
	"generate/MI300A/flash_attention_2":                             "fcf107fdf1b1820c2e123faa94a9e87f0af91605cfe6edf0464b80f9c274b529",
	"nullkernel/AMD+A100":                                           "6087646d30217130708ca820546cbafc2b7a777ae5a2d76d1c019e63875cd143",
	"nullkernel/GH200":                                              "af3fd1228184e72198c6fadac8344e5e9df50117edbc9a9fc9bf251290cbcca7",
	"nullkernel/Intel+H100":                                         "7f8966e2a33331e890ec69f6aa0aaffe60ec8a451920d1785392b16e8410accd",
	"nullkernel/MI300A":                                             "f4c98db6d9a80845a1df134a12f83e0bc39f49da35e77e54dbc52aaeee27109a",
	"run/AMD+A100/bert-base-uncased/compile-default/bs1":            "3d4684231d173c6809994373420aefd4453edb1a15017a2a867eac2be7389f19",
	"run/AMD+A100/bert-base-uncased/compile-default/bs16":           "f10761dba5719c5f81d9f99c5c344fc03dbccfb0717d109f993a9b435e7267a4",
	"run/AMD+A100/bert-base-uncased/compile-max-autotune/bs1":       "55016bf01a947ceb324b66c1171275c579da189af25d0a3162cab75fe631df20",
	"run/AMD+A100/bert-base-uncased/compile-max-autotune/bs16":      "09f504ec89f99868974841470480891192beb827f9d609286cc3bacf5bcf5e68",
	"run/AMD+A100/bert-base-uncased/compile-reduce-overhead/bs1":    "ddbc22a686a81403d9bb0999c75cfdc047acdcdda45182867b15333a13945dd0",
	"run/AMD+A100/bert-base-uncased/compile-reduce-overhead/bs16":   "82e0312263e7058ec3109cb4a03696112176484c4a7609a00c7e4e40b1ecd66e",
	"run/AMD+A100/bert-base-uncased/eager/bs1":                      "707ed341eac937836382fdb58de6b7290e8558267afe74dac251393844103e7b",
	"run/AMD+A100/bert-base-uncased/eager/bs16":                     "057fd5844a814a58d6aa28518ff5a5d0fcce9d4268e9e46be064f0189afe308f",
	"run/AMD+A100/bert-base-uncased/flash_attention_2/bs1":          "79cc6807d64db7d6b13baefe5bcae17d48f5047a25276af4cf846f1b7ebb714c",
	"run/AMD+A100/bert-base-uncased/flash_attention_2/bs16":         "1c01b8356317173d5edf9c13f9b628870d1d7f66e50cfae3181423f897827762",
	"run/AMD+A100/llama-3.2-1B/compile-default/bs1":                 "a8ec3fd9a128bce91c213dd1508c5ba80fbb8b41783629d93ab291feca0ee41f",
	"run/AMD+A100/llama-3.2-1B/compile-default/bs16":                "6adb689924a0078b74afce65d184b577bfa9cc28eb78f30af48072e38b3e96c7",
	"run/AMD+A100/llama-3.2-1B/compile-max-autotune/bs1":            "a300ee354f8b6bb01d4091f480f3245a39daf58e177544dce19943b380f70b7d",
	"run/AMD+A100/llama-3.2-1B/compile-max-autotune/bs16":           "168faebea0aafe90cd1be88f9f5880c523772fbec834a122553cf5d46f79fdd7",
	"run/AMD+A100/llama-3.2-1B/compile-reduce-overhead/bs1":         "48639a7c7888740fd5a266a9c784b068c48210d18079d4e1722b253e3ab8df06",
	"run/AMD+A100/llama-3.2-1B/compile-reduce-overhead/bs16":        "756b5780642c3b78a632fc76af0a3e1d71b2be66cc631ce3510ccc182a6f60e9",
	"run/AMD+A100/llama-3.2-1B/eager/bs1":                           "1c84f35fc802eee059aa733e98eb332f9796fda214489b0e0d642013fcd495ad",
	"run/AMD+A100/llama-3.2-1B/eager/bs16":                          "11e38b091bc46730a0c20bc1b9bf0b4df621f3b32d23f49165707f5d48e3af38",
	"run/AMD+A100/llama-3.2-1B/flash_attention_2/bs1":               "59924196fed46590a504b8d109f922b94a0a85bc6d7a7bc668b51a7ab860d491",
	"run/AMD+A100/llama-3.2-1B/flash_attention_2/bs16":              "4729b7ab63959d4542d8bbb949089de4a78a50f0a1e2638a4519884802fe63e1",
	"run/GH200/bert-base-uncased/compile-default/bs1":               "cbffc5bdb055ba713557571881f706d58a200ce2587a32929eb3a61c623945cf",
	"run/GH200/bert-base-uncased/compile-default/bs16":              "c49c8bee55290b22df92c46bd2132c354516c47384fa19d9f8bf3667738e33b8",
	"run/GH200/bert-base-uncased/compile-max-autotune/bs1":          "da708655a66ea0f84c218952a6ff472edea62ac26876581f2833b9ecaf4ec73d",
	"run/GH200/bert-base-uncased/compile-max-autotune/bs16":         "41b94d0402ae41e1b5257273cff828b36221781416413681841636b80d435602",
	"run/GH200/bert-base-uncased/compile-reduce-overhead/bs1":       "45f19776c21ca2473397674f60820cd16e6f44c84d5e74cb467ab8847228ab87",
	"run/GH200/bert-base-uncased/compile-reduce-overhead/bs16":      "bf225f99776b0df13d3e7a351ff4d365c83bd44fe98aea87b1553f9c37d2ee94",
	"run/GH200/bert-base-uncased/eager/bs1":                         "7340e18613f2c6b50e49fd3dccea94e0149ac953c0d35547001aec691cefa61d",
	"run/GH200/bert-base-uncased/eager/bs16":                        "e4836469f0eac5e0eec4fedcfe90eb4d33d8acc0cbabf561bc7e24358f21d73b",
	"run/GH200/bert-base-uncased/flash_attention_2/bs1":             "594dfadbc66b2cfeda2eb59eebf7ea9af49946152d5a76d09cd119c69c1da0cb",
	"run/GH200/bert-base-uncased/flash_attention_2/bs16":            "fa0f410edc661062903e22a945c241f6480a3a18eb8f1e6edd0df2fd7a861c15",
	"run/GH200/llama-3.2-1B/compile-default/bs1":                    "758df4dd40ae08721510daf6698df403f604b6bcffdfdcfcd0fcf187c1b8173f",
	"run/GH200/llama-3.2-1B/compile-default/bs16":                   "6f6924160ce4ee7768ec41da7c6d8d68e93c2f178e9003655826a769c4d8ee83",
	"run/GH200/llama-3.2-1B/compile-max-autotune/bs1":               "a4fb8838c72cc0c249c93614f2e3f0c6cf51235f6a6cc2663acf47a7e7a106e7",
	"run/GH200/llama-3.2-1B/compile-max-autotune/bs16":              "9b17699b6f4d07258dbbb8b795d7fac840bcca3fe6fa8069d17b662066abb908",
	"run/GH200/llama-3.2-1B/compile-reduce-overhead/bs1":            "432a72eab8c3cd5361837f8a95a58dc5c033c2d84b51d0e95b780f5770e00f76",
	"run/GH200/llama-3.2-1B/compile-reduce-overhead/bs16":           "f71f1f89b61aef65ab5b5e4e8648923a31d83bb82fff4d2c2a277083ff21cf50",
	"run/GH200/llama-3.2-1B/eager/bs1":                              "a72b9f40257c0df5c85660c1715aa17390e2090d3ec60ec4c39cca9d846def45",
	"run/GH200/llama-3.2-1B/eager/bs16":                             "81a42529839e7994979412214eea2770562ddbd78fa40238b93d35989371a018",
	"run/GH200/llama-3.2-1B/flash_attention_2/bs1":                  "283f32d3aada34bc410ddda52f3cde0f9cbb5e14ead1688fa6fcfad64b499038",
	"run/GH200/llama-3.2-1B/flash_attention_2/bs16":                 "e25b20756368d7946ca6b3dd4fa82745c34a62b64f00357fcd5595c1896a4b81",
	"run/Intel+H100/bert-base-uncased/compile-default/bs1":          "ed522ce9e75b7d22262fb20f78eb49cd855f191397b34fb4b1a4df84c5412bab",
	"run/Intel+H100/bert-base-uncased/compile-default/bs16":         "b7262f51e56a7575c15f4ef295366d5677f09310b5c32fde62dd835f7ccf0231",
	"run/Intel+H100/bert-base-uncased/compile-max-autotune/bs1":     "7d16bd29a588f0001a486940f7995d545a054f6ab65997636fcde4edd8b78a47",
	"run/Intel+H100/bert-base-uncased/compile-max-autotune/bs16":    "2a2370e61edd636b8689f1874fd29fa642806af2bd0ce663f20caec0661d86fa",
	"run/Intel+H100/bert-base-uncased/compile-reduce-overhead/bs1":  "dbf397abd2aa1e8c673638446bca2084bec04cd31d5c6cd9506fe99ba4b822e3",
	"run/Intel+H100/bert-base-uncased/compile-reduce-overhead/bs16": "ef4d4962e91cfb4e10c1b68670ba88a036fa412dca026d820ff3df1e371f4621",
	"run/Intel+H100/bert-base-uncased/eager/bs1":                    "1a3f129f2c7ea988a759bcda39137539b368beb44311e57053ccbfa96b9b9eb5",
	"run/Intel+H100/bert-base-uncased/eager/bs16":                   "b5a51a614a30af0cb45faf22422df24f7012f9df37e34d31a44f5d1f3a526d53",
	"run/Intel+H100/bert-base-uncased/flash_attention_2/bs1":        "e1bebeaac5e8e0dddcd22920f6fa285fefc93ff5a827c991b60feb112317fd7a",
	"run/Intel+H100/bert-base-uncased/flash_attention_2/bs16":       "631681d73bb64cf4b2f73e5c02b63877bee2fec4dbd707dfe77643dd407cf371",
	"run/Intel+H100/llama-3.2-1B/compile-default/bs1":               "01644fd0590d663e203df8ef7ae4f085f297847d535db2758ae0726d7bafa028",
	"run/Intel+H100/llama-3.2-1B/compile-default/bs16":              "fa6d79e547ffdd1ab973110cf535b795383e67df12d5ea36d93f948ac17da8b6",
	"run/Intel+H100/llama-3.2-1B/compile-max-autotune/bs1":          "9fdfc266ba0b186c38ccbf395b69168af39f76e4e0f1fe53b27e05b032fa180c",
	"run/Intel+H100/llama-3.2-1B/compile-max-autotune/bs16":         "90624aad1548027fb86193cbe820eb19f57950de95acaa0bdb2cffe0f8073e14",
	"run/Intel+H100/llama-3.2-1B/compile-reduce-overhead/bs1":       "63620801bf4c4d8969de5f3170f0f164dd6d60b86231b15cccebbbbe051dabc3",
	"run/Intel+H100/llama-3.2-1B/compile-reduce-overhead/bs16":      "e1ab2acacb9d07d2ec6e0a0713f8d7ad28cbf5f024e447e2c4bf46618114f37b",
	"run/Intel+H100/llama-3.2-1B/eager/bs1":                         "5447a69de5f5c462e1afb6e0ff50601e4fb28a361963eee785289edbd771416c",
	"run/Intel+H100/llama-3.2-1B/eager/bs16":                        "12d757e00736ea4e995a808fda40c6145b2a92ad05057e7496c1536e29af9c62",
	"run/Intel+H100/llama-3.2-1B/flash_attention_2/bs1":             "889bbf7e79b10f38914e02c2baa153e767d6dd0921d7e85da82df7ed09a1cd2a",
	"run/Intel+H100/llama-3.2-1B/flash_attention_2/bs16":            "1499f43e7ee45f9a9539a279c33458e2ea32b672aca99bac9339cce8d16aa7f3",
	"run/MI300A/bert-base-uncased/compile-default/bs1":              "ed4011cfb0851324f43fea32b2b1634dc175d317a66fb91dd6cb8edefb8c3795",
	"run/MI300A/bert-base-uncased/compile-default/bs16":             "bab536a02d78a597989cde6383ddf8143b42a57036c6b34b9a46d605e7493607",
	"run/MI300A/bert-base-uncased/compile-max-autotune/bs1":         "a4e629e8b0ffcbebf0f6f9c1166884363b428e7ae39c9bdec9ee6c11f3376467",
	"run/MI300A/bert-base-uncased/compile-max-autotune/bs16":        "f14037f5aabd9c73dc4f718890d9df6f54d3b7e0d7cb7b515a7cff178f9faaeb",
	"run/MI300A/bert-base-uncased/compile-reduce-overhead/bs1":      "94dd1c9816bea1cb78798f496ba7b1e37646f79c5d0ba219fa5a397568b25ffb",
	"run/MI300A/bert-base-uncased/compile-reduce-overhead/bs16":     "bfc44681be33839401ecc0b6c95fe89fdd9b96334424b5c9d1caa3f21118d378",
	"run/MI300A/bert-base-uncased/eager/bs1":                        "a3529dafbb235dca8e4d305a525282634624a6842b20e089e340c2045444c545",
	"run/MI300A/bert-base-uncased/eager/bs16":                       "20d4987f7ede1c273ad117a0a361c8bd5e07c4b7e83aa544124b7c01d287168a",
	"run/MI300A/bert-base-uncased/flash_attention_2/bs1":            "db8902d2728ec598fb46db228d6010cc5de188bd82f0f112d354509687971439",
	"run/MI300A/bert-base-uncased/flash_attention_2/bs16":           "73f9cd28e3852ecc59fffc9e74f7859423ff7f95575b1db0a501baaea44f9ce6",
	"run/MI300A/llama-3.2-1B/compile-default/bs1":                   "b6ad28d4e7723c42bd57c8c0b3e7e8db67b758a92c5e1b1bf36a1dd783e7e697",
	"run/MI300A/llama-3.2-1B/compile-default/bs16":                  "ed1a8af0a44ea5fedd6b2eeb59dc6f6c0d3d065311f28f8d4993144504142212",
	"run/MI300A/llama-3.2-1B/compile-max-autotune/bs1":              "a3b71638b421a0181b667fb7933411d159bb14bb1629c45457353e3f593ffee4",
	"run/MI300A/llama-3.2-1B/compile-max-autotune/bs16":             "dcfb71bef823e77f61db3865bff4eaf4405d16e6c1057952030310d4a53cb6f6",
	"run/MI300A/llama-3.2-1B/compile-reduce-overhead/bs1":           "48da6e10888e6bba424554621e4eaeb857da4e730119a33c15b4a91b5ef87666",
	"run/MI300A/llama-3.2-1B/compile-reduce-overhead/bs16":          "87e3625ddc7bd42095af67282f87a1811f2abfba375dbc38b2c12e01b97c8723",
	"run/MI300A/llama-3.2-1B/eager/bs1":                             "62bc549b9a63ffd635def103baf30cf62e197d9cb3340ec3dd32411daea6beb8",
	"run/MI300A/llama-3.2-1B/eager/bs16":                            "77e03cbdd25d0fa010efe90a591616926216901e12ad5f3a78a775b14d5b39c0",
	"run/MI300A/llama-3.2-1B/flash_attention_2/bs1":                 "520602f7475f6ba39d2a595a7b1a20f0e1e898f6740a41793730780bcebff246",
	"run/MI300A/llama-3.2-1B/flash_attention_2/bs16":                "3ccc7acab9ff1e381e604e2146290ab9fcddf078f3724390d72dea5b13031ecd",
}
