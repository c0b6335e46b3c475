package models

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

	"github.com/skipsim/skip/internal/ops"
)

// graphDigest hashes everything a graph carries into the executor: its
// name and I/O volumes, and the node walk of every top-level operator —
// each node's name, host cost bits and child/kernel counts, and each
// kernel's name, class and cost bits. Two graphs with equal digests run
// identically.
func graphDigest(g *ops.Graph) string {
	h := sha256.New()
	str := func(s string) {
		num(h, uint64(len(s)))
		h.Write([]byte(s))
	}
	str(g.Name)
	num(h, math.Float64bits(g.InputBytes))
	num(h, math.Float64bits(g.OutputBytes))
	num(h, uint64(len(g.Nodes)))
	for _, top := range g.Nodes {
		top.Walk(func(n *ops.Node) {
			str(n.Name)
			num(h, math.Float64bits(n.CPUNs))
			num(h, uint64(len(n.Children)))
			num(h, uint64(len(n.Kernels)))
			for _, k := range n.Kernels {
				str(k.Name)
				num(h, uint64(k.Class))
				num(h, math.Float64bits(k.Cost.FLOPs))
				num(h, math.Float64bits(k.Cost.BytesRead))
				num(h, math.Float64bits(k.Cost.BytesWrite))
				num(h, math.Float64bits(k.Cost.Rows))
			}
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func num(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// digestGrid builds every graph the digest pins cover: each catalog
// model × {eager, flash} × batch {1, 3, 16}, prefill at seq
// {1, 128, 512} and, for decoders, decode at kv {64, 2048}. Keys are
// "<graph name>".
func digestGrid(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(g *ops.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := out[g.Name]; dup {
			t.Fatalf("duplicate graph name %q", g.Name)
		}
		out[g.Name] = graphDigest(g)
	}
	for _, c := range allModels() {
		for _, attn := range []AttnImpl{AttnEager, AttnFlash} {
			for _, b := range []int64{1, 3, 16} {
				for _, s := range []int64{1, 128, 512} {
					add(BuildPrefill(c, b, s, attn))
				}
				if c.Kind != Decoder {
					continue
				}
				for _, kv := range []int64{64, 2048} {
					add(BuildDecodeStep(c, b, kv, attn))
				}
			}
		}
	}
	return out
}

// TestGraphDigestsPinned: every graph of the grid hashes to the digest
// recorded before the operator constructors were rewritten to allocate
// one block per node, so the rewrite changed no node, kernel name or
// cost. Set SKIP_PRINT_GRAPH_DIGESTS=1 to print the table.
func TestGraphDigestsPinned(t *testing.T) {
	got := digestGrid(t)
	if os.Getenv("SKIP_PRINT_GRAPH_DIGESTS") != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, "\t%q: %q,\n", n, got[n])
		}
		t.Logf("\n%s", sb.String())
	}
	if len(got) != len(pinnedGraphDigests) {
		t.Errorf("grid has %d graphs, %d pinned", len(got), len(pinnedGraphDigests))
	}
	for name, want := range pinnedGraphDigests {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not built", name)
		} else if g != want {
			t.Errorf("%s: digest %s, want %s", name, g, want)
		}
	}
}

// pinnedGraphDigests were recorded from the per-node-allocating
// constructors (one heap object per node, child slice and kernel slice,
// fmt-built kernel names).
var pinnedGraphDigests = map[string]string{
	"bert-base-uncased-prefill-bs1-sl1-eager":                "a075c1ef172e58d55fef585f9d4f050c1f84c148b62e9b275da950baa7137223",
	"bert-base-uncased-prefill-bs1-sl1-flash_attention_2":    "0bcb07a99bda41f395aa93309ed8c181bad58c37b61727769b5b05905a79298d",
	"bert-base-uncased-prefill-bs1-sl128-eager":              "1aa87057ee48a3f851a1f884c7dcbae7480ab0433aa89947b25aead61837e3d2",
	"bert-base-uncased-prefill-bs1-sl128-flash_attention_2":  "303698c3c8f7a647893bf249fa3d6cb8f8b4e0fd4903f1f0c3a5cdbcc89a8b59",
	"bert-base-uncased-prefill-bs1-sl512-eager":              "1aec8ad9c9b4f951015997d54e13d8093b2b81e66416e28ebf654bcf5cb816e2",
	"bert-base-uncased-prefill-bs1-sl512-flash_attention_2":  "5b1c4485cf59efb6e622a53d0ed48f69361b42770f709bd726fe9ad24b68db89",
	"bert-base-uncased-prefill-bs16-sl1-eager":               "0eed484b871c75dc1ec542b08383b88ef16a5fddb37867372646056eb7ccb1b4",
	"bert-base-uncased-prefill-bs16-sl1-flash_attention_2":   "a972a1d7e6616ae4fce00872deeaebce8f17f47c1869eaba05ebc7188f673260",
	"bert-base-uncased-prefill-bs16-sl128-eager":             "f2647787beb5403484735995ca95bb552e1f430a7dccbc44a3a7bc9f02ca1b49",
	"bert-base-uncased-prefill-bs16-sl128-flash_attention_2": "7fc986fafa178f10b8235d6a228a4f1bfd45add3ee7f5897ad290ec1c2f8b260",
	"bert-base-uncased-prefill-bs16-sl512-eager":             "00d7c9df1825991bd048f39b4ec5636d8d431a11b296a71593afec0964c48765",
	"bert-base-uncased-prefill-bs16-sl512-flash_attention_2": "7c1d5b9eed9dcfe26e466c14aad678c5a7a12490066dbae3cf47bad98721a887",
	"bert-base-uncased-prefill-bs3-sl1-eager":                "40a0d9a090901d0200b2abfcc348270b85d3da886977621d6834b899071ed368",
	"bert-base-uncased-prefill-bs3-sl1-flash_attention_2":    "b74ee9d7a7b5ede14b653a3c9ed8676c267ac0567489ac903a4b506c1bf6de2b",
	"bert-base-uncased-prefill-bs3-sl128-eager":              "7a137615ff0d4e26863ebe6556785dc0d4223bb09c0bf78ac5361c982994a086",
	"bert-base-uncased-prefill-bs3-sl128-flash_attention_2":  "8e7ef35c9858d0bfaa6fd26601c021cba1b48f7cabb62b305e634789eb65e964",
	"bert-base-uncased-prefill-bs3-sl512-eager":              "414afd3a4313a738b849656dd599ac9c0fd0fd6d5f4d1fea33f1fc83f6ad0178",
	"bert-base-uncased-prefill-bs3-sl512-flash_attention_2":  "3be1ca8da123673ca37ec6bf79f05b08c84e38ae07f6e5610d75a6a2afd53a95",
	"gemma-2b-decode-bs1-kv2048-eager":                       "3c5e6c169535ff17184f30bf121cd153a73e4ff69800c9da6e28b3074554da47",
	"gemma-2b-decode-bs1-kv2048-flash_attention_2":           "5dc0e1d91b4f17c141c69cdecd6b438c394d8e9ee8d355f240a73a1bfebdb8fa",
	"gemma-2b-decode-bs1-kv64-eager":                         "ee452362b99cde8b0aefa51b6f6036b8507f34439e2ed9b218075d20325594cd",
	"gemma-2b-decode-bs1-kv64-flash_attention_2":             "4cfe083f48397e788933626c54a71539f73b3ad760df6883876d68f5007b2628",
	"gemma-2b-decode-bs16-kv2048-eager":                      "65834fa6e033ffc5aeb23afa16c3c05b8d22c4c50f0b92a98483fc0d75f21317",
	"gemma-2b-decode-bs16-kv2048-flash_attention_2":          "9d712de9761373e151a055885e0b2d20a741b65f358666f03d5afc8ba498e355",
	"gemma-2b-decode-bs16-kv64-eager":                        "8b51aec69769c15347b992d1c63481740cc9c511adfaa0b1cff63bb162576a49",
	"gemma-2b-decode-bs16-kv64-flash_attention_2":            "1b2e838b6456ec28d16977283ac8015fc8e2a3230f5fdd019a0ad480fd330e9b",
	"gemma-2b-decode-bs3-kv2048-eager":                       "fcffe3221462a6a37e30c40e1051616732dc95c0598b8e8c0eeb47ffef188221",
	"gemma-2b-decode-bs3-kv2048-flash_attention_2":           "43d09718b3982758ed62d2271111acb2d2d61e87c888b235cb9b09f5ca00ba5c",
	"gemma-2b-decode-bs3-kv64-eager":                         "236d21f868918a124c910a0a4e7e696b3882b362d971798c54959649974d9ded",
	"gemma-2b-decode-bs3-kv64-flash_attention_2":             "af570cac86a69bff2db80b8e3fc5cd0a1c11255e0add2fb0a1566c806d00b00a",
	"gemma-2b-prefill-bs1-sl1-eager":                         "7bc191d7dff278857a15d1d1437e146de166426b5cf67da12a0117a5aa332071",
	"gemma-2b-prefill-bs1-sl1-flash_attention_2":             "532b85c0be5d7db071671099ef8274ccca65c6316c2196b8cbe6dfcea0d9281a",
	"gemma-2b-prefill-bs1-sl128-eager":                       "bc21e77d0649b32aaa8743722510fb60e639940e02efdd013d472eb86b167c6f",
	"gemma-2b-prefill-bs1-sl128-flash_attention_2":           "bcee52ad393702e5f96aace388d90b9b1e61a2202c2f7bedb9461c3f682773b1",
	"gemma-2b-prefill-bs1-sl512-eager":                       "e7815b267100d3bd9555ac2103852c97deb773b7d09689427862cb3a69c3d7df",
	"gemma-2b-prefill-bs1-sl512-flash_attention_2":           "dd4a55c72074a479ddab9f6e0bbfcae5c9d06a89212f82bbbc6ec0ef07ad9498",
	"gemma-2b-prefill-bs16-sl1-eager":                        "c64afd5276de090dcb90ca0704bd83561949966576f9b60bea092b51b1919555",
	"gemma-2b-prefill-bs16-sl1-flash_attention_2":            "6e6d2a94206c7bc169a0e056b6d3f73049aace0117ad8e3fe7510098fadd54a7",
	"gemma-2b-prefill-bs16-sl128-eager":                      "452d426c3f94757a5124d30e6ce1fa2222b9cebbe0639ca4bf8e79ea1666a69c",
	"gemma-2b-prefill-bs16-sl128-flash_attention_2":          "9a0eeff1e8b4a4912b7a207ab8da4e20372daa166fe8affbd4ac5272937d49d8",
	"gemma-2b-prefill-bs16-sl512-eager":                      "0fc06b399a6b6b7024f73685b38e9b3c6ff65187593beb4f71aab4a4e31c3cda",
	"gemma-2b-prefill-bs16-sl512-flash_attention_2":          "f8e641c9eab98b9f5ee468519714a550a1144b677c498e5aa8c0832fbce93208",
	"gemma-2b-prefill-bs3-sl1-eager":                         "ee4efd3399757c371d15a4b0cbcc7579305b577f79274001f2283f1132847d22",
	"gemma-2b-prefill-bs3-sl1-flash_attention_2":             "1b40ba236103dfc91ed15f9f307654ef1d1ab6095bac7a31ec2d61c37962b385",
	"gemma-2b-prefill-bs3-sl128-eager":                       "0a0dce7198082ab1c036126014f313d8885dd7d098f05d0d08f63882af5032d4",
	"gemma-2b-prefill-bs3-sl128-flash_attention_2":           "b45d415b96ff7b43de363c8c90fe35fa0ecd118928eecbe54528d1429f523080",
	"gemma-2b-prefill-bs3-sl512-eager":                       "c03e014fa6b131dc3dc651a70d7ff09b965970dd04374bb83064ad249f3533ab",
	"gemma-2b-prefill-bs3-sl512-flash_attention_2":           "e4e4df74a23a29bc99332e33b80c5472248d98d2af6748fce535bdc355ba4ed9",
	"gemma-7b-decode-bs1-kv2048-eager":                       "01f7dc122fcef4a91d310f168c673a232a6583552f9db7a4fc85aefafcba3b35",
	"gemma-7b-decode-bs1-kv2048-flash_attention_2":           "181a125e8078d3f43dda7ba3c6572b7f54b03d68b4eab1499e871c590417a998",
	"gemma-7b-decode-bs1-kv64-eager":                         "4ee193a1a9091860d6a1abc98ade866540a4dc3f575f814883f4b98279e7e26a",
	"gemma-7b-decode-bs1-kv64-flash_attention_2":             "1783b1701ddb3627a6af2841916b8607cb4dc1d9e69797d03450abfbe04ce24b",
	"gemma-7b-decode-bs16-kv2048-eager":                      "35f8312b6acae62905a4ae3d2b5fa3ddbb8fefde48aefb049858fa54318c4c3e",
	"gemma-7b-decode-bs16-kv2048-flash_attention_2":          "d0257a9a7e6e837fb4b7e8a461ba7103df5cc8a02de4dcc96c57143be433a481",
	"gemma-7b-decode-bs16-kv64-eager":                        "c7583f612cb1aeb215b099d8deded2facea362a52dc814319fcb306d32447b39",
	"gemma-7b-decode-bs16-kv64-flash_attention_2":            "f7279e255d3445adb41099055dfaf7e9b1cdfa82c9f4f3e9807a01491cbedcbb",
	"gemma-7b-decode-bs3-kv2048-eager":                       "ca7f4a83d607a79f933552c19749715610f344ad0b5040cff36f8d7227da622c",
	"gemma-7b-decode-bs3-kv2048-flash_attention_2":           "c2264cbcd58e85b995d30521fa6e18a721450877a7016cc20dabf8f629e4906d",
	"gemma-7b-decode-bs3-kv64-eager":                         "1287b0017e847cd43ad25efd35a5e7ddef690f2a353a7593e14995341439638c",
	"gemma-7b-decode-bs3-kv64-flash_attention_2":             "0efcb9febfc734c7077b12687e809371b000f3793c6a93a6f294e52c64247ffb",
	"gemma-7b-prefill-bs1-sl1-eager":                         "50732b7cd39d8b2e9252b35941d8e45cba2ecc3d4483883a12452bb519740053",
	"gemma-7b-prefill-bs1-sl1-flash_attention_2":             "5ac43100107379c84f724519dcc67d3da04bb995ffacd65f078a4e1e639d0c3c",
	"gemma-7b-prefill-bs1-sl128-eager":                       "4b970c5a3ad91bd27b5c0ad91fff2c5521ff1f7484d3cb31fcf83b6a8c8b2505",
	"gemma-7b-prefill-bs1-sl128-flash_attention_2":           "28544cea6d3bb90fb8214cef70a2c17803a62f1e7f9e74a60b456c9270a24331",
	"gemma-7b-prefill-bs1-sl512-eager":                       "12586a4905f2c229ff21f88c25a6bd0b18f41de157b5c3fbf0a2a8d154b25ce9",
	"gemma-7b-prefill-bs1-sl512-flash_attention_2":           "2c5c26ded60956a050312c7a27947a8a27fee9faef9f0eb2db54e415e8a610a5",
	"gemma-7b-prefill-bs16-sl1-eager":                        "c546cab0b37bb585ba99bbcadde063f0d3bfeebd81720b1ed07f8345673d2e24",
	"gemma-7b-prefill-bs16-sl1-flash_attention_2":            "2089736a7cecefd2733f9b1bc544cd6adce8652fcd0f0f9ae6cf2c29ddade276",
	"gemma-7b-prefill-bs16-sl128-eager":                      "e6c6df2c7a31e7ded86848988af29d675fbc8c157e4f4503295a6c1fd5c838a5",
	"gemma-7b-prefill-bs16-sl128-flash_attention_2":          "c46911d7ec67e8bade5cb3b0e86a6fb43e473cb056afdc17ff50e266f4c02f5b",
	"gemma-7b-prefill-bs16-sl512-eager":                      "9febeb67fab23e3c8984644956030971c882fa69ce5b8b0547c35899c99132a5",
	"gemma-7b-prefill-bs16-sl512-flash_attention_2":          "70338c05d8068db303715091e4527badf471453ba7bd12953032273897a9381b",
	"gemma-7b-prefill-bs3-sl1-eager":                         "42bdc9016f638134f1746378c6fe1d0a1fcb62473bf466e2b9601e71463e6910",
	"gemma-7b-prefill-bs3-sl1-flash_attention_2":             "53a7e9f09817a3a63ce37bae91e6954330f7a67a020155f4e23d4be302b7f9aa",
	"gemma-7b-prefill-bs3-sl128-eager":                       "df2f5ee11599421789de9f791ff38dd854088f615fa870dff0b72ade39e33856",
	"gemma-7b-prefill-bs3-sl128-flash_attention_2":           "8bdf8378c41100cd3bc16190648254175842c3fae3e815a506b74106a243356c",
	"gemma-7b-prefill-bs3-sl512-eager":                       "2475043454b7ff8d3d9509ad01e71c3ded1214c4aacdf6653277ce93b39b7675",
	"gemma-7b-prefill-bs3-sl512-flash_attention_2":           "06d514da1836e9af93c8943b5d65d40e7b0620c2a6a0bb3c0e93f125c297fac9",
	"gpt2-decode-bs1-kv2048-eager":                           "c4e1013aa73b0d8a4bfe55f9e1238efbd3d6858ea9dfbe132931cdcd8feb3c1f",
	"gpt2-decode-bs1-kv2048-flash_attention_2":               "9c7d7f5e46f20b8dacba6107fb8a80425e8f18ef4d73caef0f0faf231f3baf3e",
	"gpt2-decode-bs1-kv64-eager":                             "6193877a1afafdf7854cdc8b414759bebd2e82bdfd48594429e0149c19926c19",
	"gpt2-decode-bs1-kv64-flash_attention_2":                 "9949d2b12ac9c821f0de173931e85b013ebf3e7f31bb77b914ec0e6425ebeda6",
	"gpt2-decode-bs16-kv2048-eager":                          "31a0a1798a69b7531c99ca0b6272a88b5ae8eb4fdb9794d6040a69d3455cecd7",
	"gpt2-decode-bs16-kv2048-flash_attention_2":              "9b5092f99375a4f77b6d63d8f4ab675c0494c66213698f33765f652379485507",
	"gpt2-decode-bs16-kv64-eager":                            "bf31755e1c37cd3f6757fb2ee5c821bc72a4dbff6bb3cf200b6876c66107530b",
	"gpt2-decode-bs16-kv64-flash_attention_2":                "7594806253d05dfbf7dd72d2a6efc4ae0467a9b8151dc6e0f388f1c6517a861d",
	"gpt2-decode-bs3-kv2048-eager":                           "c6ad0aabb3d3108898cdb09ef320fc8a213374f67beb7dafe04df034895f66f0",
	"gpt2-decode-bs3-kv2048-flash_attention_2":               "6197b32424ec0c483fc20bb0c810ca697ddd3d6b6eaf635287b443324a9c3cfb",
	"gpt2-decode-bs3-kv64-eager":                             "f26a821aa367241bee755bed31922e5fd27d8732caa69fdd24ff8564ceb50277",
	"gpt2-decode-bs3-kv64-flash_attention_2":                 "2e4cad661e07b43902e2f77300adb355ecf2fc809717e2d91d9e7e39a1933807",
	"gpt2-prefill-bs1-sl1-eager":                             "47ecd36dc4ffea237474c467ea03afb3d07f1c862c881f56525674207f461087",
	"gpt2-prefill-bs1-sl1-flash_attention_2":                 "4d914184c05ee79fd787c885bd8e8b61b1fc526587d48c007090308187357d14",
	"gpt2-prefill-bs1-sl128-eager":                           "110c9d1c6e853dfe71432b6d0e30f90b91c6ba65c37e528a518bd3b95374e6da",
	"gpt2-prefill-bs1-sl128-flash_attention_2":               "e229df72d9086946e468f81a01111e8d8c93cdfe183aa46c8194e7eb13b4b88e",
	"gpt2-prefill-bs1-sl512-eager":                           "54501758cbba4ef5616e1b4e3c175dddf22436749c3da3085e25bf7fcd308ddc",
	"gpt2-prefill-bs1-sl512-flash_attention_2":               "3b14befdf7be3c40ccbde32676ee7b0121c940b0aafe8a93ad6121f81432fe3b",
	"gpt2-prefill-bs16-sl1-eager":                            "4143091399ed99f8ede78ebfb28af7171d22eff746429851672413e0ebd728b8",
	"gpt2-prefill-bs16-sl1-flash_attention_2":                "3b792f0d26ab0f1c5f0923047db6551de1a7032974fbbb35244d04cdb7bc5bc3",
	"gpt2-prefill-bs16-sl128-eager":                          "432155187520b3ad47c8fbff12789d97de090b5c70f56a44c2d85b0de3d1e9ff",
	"gpt2-prefill-bs16-sl128-flash_attention_2":              "66452300835a8e769dab95178af667b61e2ca6343d9d906873c6bec6ac66c9c7",
	"gpt2-prefill-bs16-sl512-eager":                          "ddbf2e876138edec45c7a67be36d1f265426b9e16df0f97d8f157eeec5490673",
	"gpt2-prefill-bs16-sl512-flash_attention_2":              "20e752b48966d6b97a52f2ae3cdec7b66bf5e0f14aa8340c36a2c4aa73e2d869",
	"gpt2-prefill-bs3-sl1-eager":                             "6b6fdbb94cd30ab940d2782f4b68e6f8fb633ca2f5cdd9af1eae35dbd491801b",
	"gpt2-prefill-bs3-sl1-flash_attention_2":                 "51c6b41d0067f48431d4d6caeeb3f339f4f0c8fe6200690d9d10275ce6bec68f",
	"gpt2-prefill-bs3-sl128-eager":                           "be553203be4bc380f94bd3a009d40344ebe49f4e9724389de0400a8c6baad7a1",
	"gpt2-prefill-bs3-sl128-flash_attention_2":               "f26ebb3164697c2cc7f19f4eaa4ac057be44aa9ca134a3adfaed344891231b6e",
	"gpt2-prefill-bs3-sl512-eager":                           "87e894e32afd5c6d3d84b567ce54f7dce6c2111a772a7927f089aa4df86cbd4b",
	"gpt2-prefill-bs3-sl512-flash_attention_2":               "39b8b17ceb48503753365e120985c875ca74cc41d3f803fee1949d326b834bd6",
	"llama-3.2-1B-decode-bs1-kv2048-eager":                   "e9c8cf9537279a2080db00e44d94208cfc179b29d70812f05e985358d1141c74",
	"llama-3.2-1B-decode-bs1-kv2048-flash_attention_2":       "6ab5068b3e2d2fa5dc4da4f0db1c8a0b310121d701e685d240423da23e2fb9c6",
	"llama-3.2-1B-decode-bs1-kv64-eager":                     "f39d7a7c8fbda82ebe4008ca2f50b9b2c83cd18232f37925fbff0ef4aaea65bd",
	"llama-3.2-1B-decode-bs1-kv64-flash_attention_2":         "33477025dc4897624a2ff7bdeb75c26b6b76fe0193fb3849a86e911cf6873a28",
	"llama-3.2-1B-decode-bs16-kv2048-eager":                  "1c25fea5a8c4bfa634f3a1062f8b42d06fa4cba4f4df573efc2bae746e58e3d9",
	"llama-3.2-1B-decode-bs16-kv2048-flash_attention_2":      "2cc06f8c2acbe07d4b3780d64b7e1e75c25f8c73e3dbf498700e773569412a9c",
	"llama-3.2-1B-decode-bs16-kv64-eager":                    "a3787c937f5138a579ca72c40a201fb02361265dded216b9621e08c81dd86e42",
	"llama-3.2-1B-decode-bs16-kv64-flash_attention_2":        "d32a2bb27340be561ad0e31b230ccff9b214435838dc56b95112325467c6a2bf",
	"llama-3.2-1B-decode-bs3-kv2048-eager":                   "6167a62c3576a8d6b05544ac9dbf39d0de1f35ad4a585aafa8065b319cf21743",
	"llama-3.2-1B-decode-bs3-kv2048-flash_attention_2":       "67672e4865df7779009df5966c028307a03ea5bf0e1b8b4f8681eb30268b37c2",
	"llama-3.2-1B-decode-bs3-kv64-eager":                     "f9a1f28a3d289fa8f9a5ffc38adad7d44baa8e1d804e0132b7ac0910c631dd10",
	"llama-3.2-1B-decode-bs3-kv64-flash_attention_2":         "0c6391b30bb2f09d7cb4543e9f77a759495f349e770e8f632b706059a4e00eb8",
	"llama-3.2-1B-prefill-bs1-sl1-eager":                     "750e40131f58ffe2eba6fcc3966a87cdac665740bc44c8340b41096d0d37d2ba",
	"llama-3.2-1B-prefill-bs1-sl1-flash_attention_2":         "5563827768d5697e810226d12e7577bf593ae4351ffd4a71e1edd6b5df67e876",
	"llama-3.2-1B-prefill-bs1-sl128-eager":                   "7dea0c43cb0ba52f71076637765e0416ebba4906a561b59878e605554ebc0693",
	"llama-3.2-1B-prefill-bs1-sl128-flash_attention_2":       "09982ba38efcb5d62ee4b36563f5762755a368f1452e5a3876c21fb36d4e9859",
	"llama-3.2-1B-prefill-bs1-sl512-eager":                   "ff09dd3030babdb1e9bf08e70a5ae30c016f51d13c2e60be79a11fdc09d99653",
	"llama-3.2-1B-prefill-bs1-sl512-flash_attention_2":       "7728e712c5bcd8b988f907426546e1eff6e2d8f3e6ea524373504757b7e6d235",
	"llama-3.2-1B-prefill-bs16-sl1-eager":                    "3fb0fb0afadf9c74651a4c14f2c65b55ed8bbff2615f189c1e142b3dc9406a4e",
	"llama-3.2-1B-prefill-bs16-sl1-flash_attention_2":        "0fa72d3c262a711ff5f6ad05f6f84c49e789c8e9d0b6608129fcfb268763912f",
	"llama-3.2-1B-prefill-bs16-sl128-eager":                  "88d01111293bf7b202fb7b0b86ab0d439025c38460eab61ab87a63b85040a189",
	"llama-3.2-1B-prefill-bs16-sl128-flash_attention_2":      "be1771db4f148d6dcae524aff75114c25f0ba1ee033cc4e1e1cc7a618572f017",
	"llama-3.2-1B-prefill-bs16-sl512-eager":                  "d89e9b1e82a58977f29d927b922a326b7f3a111862e3f74ad21f10033553a1e4",
	"llama-3.2-1B-prefill-bs16-sl512-flash_attention_2":      "876dc589c038504874a7f13e4e376b9091ace562437edb8512395729bea7fd01",
	"llama-3.2-1B-prefill-bs3-sl1-eager":                     "95e9f6c21b8ebe589cc67e0afbcac1e00d3ca6ada54851ea5d8fdaa7adfef189",
	"llama-3.2-1B-prefill-bs3-sl1-flash_attention_2":         "a860e00545ad2f8c8c8ebd34963990aef13ff7a2515dbfc634419102fea24b38",
	"llama-3.2-1B-prefill-bs3-sl128-eager":                   "c00a7f87c83fd19327b11273c10ef561ca53ea22c7281433d681c4e35fdffe05",
	"llama-3.2-1B-prefill-bs3-sl128-flash_attention_2":       "5678b3efe62c1852e4d1a3736448f600924c07401722a6e321ea8be6f3d6085a",
	"llama-3.2-1B-prefill-bs3-sl512-eager":                   "b806ed6e9f8c81324b057ec6c117491da8887a97e36b6d30cef404b6a125d2fe",
	"llama-3.2-1B-prefill-bs3-sl512-flash_attention_2":       "0d6ae6c37a4e84caf4bcb5b645c5b04760b391e76c7b961bc1e12b65b87a6505",
	"llama2-7b-decode-bs1-kv2048-eager":                      "65c9d125a5cc2fb6b1a5121197e508212b88c34329cc15f42633e38588e2c7ed",
	"llama2-7b-decode-bs1-kv2048-flash_attention_2":          "5c58327db275b7d7c7b71e092f3f6ac880f6b4db07f7e32f791201d340f97dc6",
	"llama2-7b-decode-bs1-kv64-eager":                        "473984fb9cdd02b3cc72ec73c0489300f944266b4b50275cd66d800d9a434bb4",
	"llama2-7b-decode-bs1-kv64-flash_attention_2":            "02956207b3d82a9786c4567f054ac24e6b634b35956f94e76c57a188c0970e54",
	"llama2-7b-decode-bs16-kv2048-eager":                     "40aa5e64fe08b326e2255406cf777964ecb09d46fb50ef6bc127cd5338f9510f",
	"llama2-7b-decode-bs16-kv2048-flash_attention_2":         "96181c36fe4d7bc7e0c79409a0e5605488361e66ec72df1523c3380f6cd36b81",
	"llama2-7b-decode-bs16-kv64-eager":                       "ed29a8028fa7666c7d72630727ae35a0c2c8e31a3de8aaa2a64a906ce25b5a9c",
	"llama2-7b-decode-bs16-kv64-flash_attention_2":           "6bf1a6398f059a403020a36efbd8e42a0b5cfafb92ba6d0f0c0f9dffaba0115d",
	"llama2-7b-decode-bs3-kv2048-eager":                      "fb0125702d6a941b5390c23eda173947305667c51822c0989137c0866a9e7182",
	"llama2-7b-decode-bs3-kv2048-flash_attention_2":          "32ba62d2d5dc235007ba472a85c6e5f109368c436ca392e27316b2a68ab31fc2",
	"llama2-7b-decode-bs3-kv64-eager":                        "63191ebc0c79c0d6b5b2b3f9986ceab4a412a337d5aa18450aa7d8f8ff65b152",
	"llama2-7b-decode-bs3-kv64-flash_attention_2":            "9c1db1588aa23048fbedfb8d382708b2107366a04c28bde0124574d77759ba9e",
	"llama2-7b-prefill-bs1-sl1-eager":                        "681c2ab492442f2795429370f2650784687bbc33c2398e5395bb9dc835482acb",
	"llama2-7b-prefill-bs1-sl1-flash_attention_2":            "91557419f95cc8d16bca1c0f978ea991d348ad6c12ba2c9aa65dae4bc194a704",
	"llama2-7b-prefill-bs1-sl128-eager":                      "b68163fbf8740bb3d614f9b70001e476121f20e355a5eade46f1dea0adbaa149",
	"llama2-7b-prefill-bs1-sl128-flash_attention_2":          "8a671ab565e8ff052691a2dfdcf2e4a9f03e7505a66daa50c79883ebe9390eba",
	"llama2-7b-prefill-bs1-sl512-eager":                      "f9ab571cec735b032583ae98456ba5ba1506bfce222855ebba34c4f7866d31cc",
	"llama2-7b-prefill-bs1-sl512-flash_attention_2":          "9d9d2afa62cbc509670d0faae39460ae6d352896288d0511c5590af5dc2bf0d0",
	"llama2-7b-prefill-bs16-sl1-eager":                       "2475e16125ead95958010044f8bb339c3b8578518db76a8477222f449252f82a",
	"llama2-7b-prefill-bs16-sl1-flash_attention_2":           "e5404056c9819f48b48c46d535df10c400889195fdc8221b6c61322862936a21",
	"llama2-7b-prefill-bs16-sl128-eager":                     "f95ffcd572ff06fd403c5a2c7cb75593ff745e4955a981586633212b45b9ce74",
	"llama2-7b-prefill-bs16-sl128-flash_attention_2":         "52c0ac44e5e5c0700245a8df326cbc2d82f0fbf071c22f0cc6ffe358ede49716",
	"llama2-7b-prefill-bs16-sl512-eager":                     "fbe8c5e5a7dbfe6799719206198b2b021e9cb0de61b9d25eac7abc8f6a9772cc",
	"llama2-7b-prefill-bs16-sl512-flash_attention_2":         "1041a61ff0dd522cc21a7555f07e52210d7503640b60f706437f520a3a35cfd2",
	"llama2-7b-prefill-bs3-sl1-eager":                        "ab47db4e7f57851f5bd79a9f10de8598b90c1c8bb08092c93bdaee0b06c58980",
	"llama2-7b-prefill-bs3-sl1-flash_attention_2":            "e24b177de1ac288151fb43510d234a1e96e47eace99166c0cb7578e246fc6339",
	"llama2-7b-prefill-bs3-sl128-eager":                      "5a48b9a067e7fb9b35c2cc2984dd68f1ea053d40ea4391d2fe8b89d8560d3892",
	"llama2-7b-prefill-bs3-sl128-flash_attention_2":          "f7756d518fc794c8896eaca038120af3b2b7ce6b8df97e19066e8c4cafd06336",
	"llama2-7b-prefill-bs3-sl512-eager":                      "39b13daa1a8bd1eda7b7a745868b218583531159749346cb4594d1f0ab10ffc3",
	"llama2-7b-prefill-bs3-sl512-flash_attention_2":          "1bb689d942b1be5004bd4e3559976d01a86582f0614886f9112c1525315b3bf4",
	"mistral-7b-decode-bs1-kv2048-eager":                     "32374a0df19c232c746793318d79b7949d13ff6f186b029939fa2708dc89555b",
	"mistral-7b-decode-bs1-kv2048-flash_attention_2":         "b6af9059ecb734544351514338fa56231ff171e3360beb51e5de1c572e1b3956",
	"mistral-7b-decode-bs1-kv64-eager":                       "83dea4363af04df8ed9247b1c44f39f312d8eaa590b8b49f657db5f383ce69cf",
	"mistral-7b-decode-bs1-kv64-flash_attention_2":           "ee06dbae88cf8f51d4868985841312d25a1b9bcb99a092a6a974823f76562c30",
	"mistral-7b-decode-bs16-kv2048-eager":                    "78d1ac9c1224241a679fe63511b6fddc869bd445adc1ba45c2006b12f68d7e9d",
	"mistral-7b-decode-bs16-kv2048-flash_attention_2":        "55a7eae7184d3088dc2df1b1362eac7765008894e7bae5692a0b23937d1a408a",
	"mistral-7b-decode-bs16-kv64-eager":                      "b7732cc571a1ebe019e506f7a85b76aea0685231b1acb46bbfbece41e0690a74",
	"mistral-7b-decode-bs16-kv64-flash_attention_2":          "e906cf7453c52e07e3104b663ab867ec259f1faa1db3e13eb83d1a6490848f06",
	"mistral-7b-decode-bs3-kv2048-eager":                     "08fa11a6ea41f9f631b9c51eff4ca6f54f796fe6472bfe790770dc12f0b37d01",
	"mistral-7b-decode-bs3-kv2048-flash_attention_2":         "81704ae1d245572840fe91708c888a1c48a0bada90dc03f4c7a725f39f34a2c4",
	"mistral-7b-decode-bs3-kv64-eager":                       "b0d4076be14dfff4cf2288d571cfbe16ee6c88bd479e4857e0e929438b1f12f2",
	"mistral-7b-decode-bs3-kv64-flash_attention_2":           "c7dd409bd8ce510bedd19fa7f504e5423763bb5d4d5488ca0cdd4b43d5ba444a",
	"mistral-7b-prefill-bs1-sl1-eager":                       "3f8378979e33a4ebb46336c75cefa5879a11ea0c70b2c4ab912a02b8d63bdc86",
	"mistral-7b-prefill-bs1-sl1-flash_attention_2":           "dc509a1819d65eaad9a099cee3ecd5dfe151130ab003534713423c72a4590c4e",
	"mistral-7b-prefill-bs1-sl128-eager":                     "3996bb1aba41674f7c3f5962fa9744f00de31ea77c1a76e141790ea573b6050b",
	"mistral-7b-prefill-bs1-sl128-flash_attention_2":         "88b7f4cb8a7d5cdc717dab38fc9b1e77df5d5ccd6c476a4e250028f61a6806de",
	"mistral-7b-prefill-bs1-sl512-eager":                     "2c222e61521180bc24cc872b51234fa963c621583c601e4872a2c3f347a35c49",
	"mistral-7b-prefill-bs1-sl512-flash_attention_2":         "809e87c34ef94d8ecd4304fd733646368b648854ce8df085ce47ae377ca2982f",
	"mistral-7b-prefill-bs16-sl1-eager":                      "0328d7427a9325d68989d424119401e595a47487133e1efa2dceb814e026a898",
	"mistral-7b-prefill-bs16-sl1-flash_attention_2":          "99e1f20f4b5dce509edf4646694fc68cd95a4e77f98202809e4154a5a30bec5b",
	"mistral-7b-prefill-bs16-sl128-eager":                    "4b0c705afe8a9aaf89e8d15c04906d4a15ee678707c64f5cc0e794083a7e6d63",
	"mistral-7b-prefill-bs16-sl128-flash_attention_2":        "492323d40d5817e3254cbb8ed433cf4cd98ce4898ae5f11b03ac511c61d6eea6",
	"mistral-7b-prefill-bs16-sl512-eager":                    "bd8f635cff87be0a933fb6572a063c4c96af8c0093601670da16a7d70fb8b74c",
	"mistral-7b-prefill-bs16-sl512-flash_attention_2":        "a8933e6d961910650a14de3ab7aaa9ea1737ec4f47d6d9c587b83a0c0f1b7cdf",
	"mistral-7b-prefill-bs3-sl1-eager":                       "f6e9d1ac2ce0801ad789bf6e2ec48ee876c2a24f64ce0c43198f153c3e1b0640",
	"mistral-7b-prefill-bs3-sl1-flash_attention_2":           "50d02430ee50aa84ca02c80d12372c7f4947bd1ffd15e0e3bcf814df8dbdcc8e",
	"mistral-7b-prefill-bs3-sl128-eager":                     "91b1d24bf1fdc4bca7e5901f3dfe7e43653ef47ccb9fe332ee1ffd28fbb75fed",
	"mistral-7b-prefill-bs3-sl128-flash_attention_2":         "e26d426534a34677c744814ec44fb15b7d18ac9eb5bb2bc6e189356839057e19",
	"mistral-7b-prefill-bs3-sl512-eager":                     "c84199875fab4d29d9cc8e9f2c4435ac7012d852f8035073d05f30c01a0b60b6",
	"mistral-7b-prefill-bs3-sl512-flash_attention_2":         "a607b2f345516c1ef02ce208a4481e46a15e6bcf9e21e1aa875a0122a1e05158",
	"xlm-roberta-base-prefill-bs1-sl1-eager":                 "729bb7a557b6d2bac31ff07bbde55552903779a5d41edd2f6693717ff965e36e",
	"xlm-roberta-base-prefill-bs1-sl1-flash_attention_2":     "faf62844963414ea659a094d63e3218a40538f6ae59d96968035e37de5fd2763",
	"xlm-roberta-base-prefill-bs1-sl128-eager":               "eb1de08db3c778171851000837c1e05d915fbac5c8c3b786856f7b3f0884a81a",
	"xlm-roberta-base-prefill-bs1-sl128-flash_attention_2":   "cdad92b3edc4aaa790973662a9f23c0a4c1dcb60e39109e9363a0e25b489771f",
	"xlm-roberta-base-prefill-bs1-sl512-eager":               "2d7504bba97a421a8f39229c67e04aefdf3d84a51d2ba3fae51c0b904e5681be",
	"xlm-roberta-base-prefill-bs1-sl512-flash_attention_2":   "f288418ab7d439bd0d353faf7d19f10390abb76f17ed134ab9bbaabd5f9a8086",
	"xlm-roberta-base-prefill-bs16-sl1-eager":                "3655d039b652b3e2e4a7feae0d32b0f1550ff52bb3bde77c179b3cc53f33eab2",
	"xlm-roberta-base-prefill-bs16-sl1-flash_attention_2":    "4f2e571e06872964d40dc26d1cb15dbacf036effef82fc6cdc10fee58979588c",
	"xlm-roberta-base-prefill-bs16-sl128-eager":              "2cfe769458ac81a3fd3acc3bdc70caf3e305762fa3ae27a7ec2caa3fdab39039",
	"xlm-roberta-base-prefill-bs16-sl128-flash_attention_2":  "0414f04d870cd6538e6abd4ce9d015eef788c025c8b16acb1aa7afd6c2cfcad0",
	"xlm-roberta-base-prefill-bs16-sl512-eager":              "6db6660f1b166301ac86bc9f3762693bacbbc51476f0266c46335072db8e9ee9",
	"xlm-roberta-base-prefill-bs16-sl512-flash_attention_2":  "a421039ec2ab759837cac6f23b860c660a7b9d6c1b6220ac782f8c7909474087",
	"xlm-roberta-base-prefill-bs3-sl1-eager":                 "207e11c6fa2de63abe67314deec9938d93e50bf7f4242733e463e320849898f6",
	"xlm-roberta-base-prefill-bs3-sl1-flash_attention_2":     "18308b1d91991cace342a337741e28ce436088a4d99a6a8b860c199c00d8e572",
	"xlm-roberta-base-prefill-bs3-sl128-eager":               "a5280826e2d978c0f131b9a06b5edb0d64f61c6ca6a4661c0ce9ec857c2a9b94",
	"xlm-roberta-base-prefill-bs3-sl128-flash_attention_2":   "5cf4fed94952dbc86ea834aeacb9ba4995a662baac5595e5504c181165c132ce",
	"xlm-roberta-base-prefill-bs3-sl512-eager":               "e1d8f280662030834c0c62e5ae330411a442b786cf2ab5a29a2545dec191c7c0",
	"xlm-roberta-base-prefill-bs3-sl512-flash_attention_2":   "b0de7d9a32d5ba81a39548993afc90c027d3370548c5b0054408a51b684ee751",
}
