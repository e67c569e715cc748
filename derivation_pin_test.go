package beas

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/opt"
)

// pinClasses is the test's own union-find over a query's attribute
// equalities: the equivalence classes the checker derives coverage from.
type pinClasses map[analyze.ColID]analyze.ColID

func newPinClasses(q *analyze.Query) pinClasses {
	pc := pinClasses{}
	for _, c := range q.Conjuncts {
		if c.Kind == analyze.EqAttrAttr {
			pc[pc.root(c.B)] = pc.root(c.A)
		}
	}
	return pc
}

func (pc pinClasses) root(id analyze.ColID) analyze.ColID {
	for {
		p, ok := pc[id]
		if !ok || p == id {
			return id
		}
		id = p
	}
}

// renderDerivation renders everything a derivation decides: the verdict
// and its bounds, every fetch step, and the bounded plan made from it.
// A non-constant key source is rendered as the class ordinal of the slot
// it reads (the XClasses ordinal of its key attribute when the slot holds
// a member of that class), never as the slot number: which member of a
// class a key reads is free, its class is not (TLC Q12's billing key has
// two materialised members to read from).
func renderDerivation(q *analyze.Query, chk *core.CheckResult, plan *core.Plan, planErr error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "covered=%v empty=%v reason=%q M=%d out=%d used=%d\n",
		chk.Covered, chk.EmptyGuaranteed, chk.Reason, chk.TotalBound, chk.OutputBound, chk.ConstraintsUsed)
	for _, s := range chk.Steps {
		fmt.Fprintf(&b, "step atom=%d via=%s x=%v xc=%v kb=%d ob=%d est=%v/%v/%v\n",
			s.Atom, s.Constraint, s.XAttrs, s.XClasses, s.KeyBound, s.OutBound, s.EstKeys, s.EstFetched, s.EstRows)
	}
	if planErr != nil {
		fmt.Fprintf(&b, "plan error: %v\n", planErr)
		return b.String()
	}
	if plan == nil {
		return b.String()
	}
	pc := newPinClasses(q)
	ids := plan.Layout.IDs()
	for _, ps := range plan.Steps {
		b.WriteString("plan keys=")
		for k, ks := range ps.Keys {
			if ks.Consts != nil {
				fmt.Fprintf(&b, "[consts %v]", ks.Consts)
				continue
			}
			cls := -1
			if ks.Slot >= 0 && ks.Slot < len(ids) &&
				pc.root(ids[ks.Slot]) == pc.root(analyze.ColID{Atom: ps.Atom, Attr: ps.XAttrs[k]}) {
				cls = ps.XClasses[k]
			}
			fmt.Fprintf(&b, "[class %d]", cls)
		}
		var filters []string
		for _, f := range ps.Filters {
			filters = append(filters, f.String())
		}
		fmt.Fprintf(&b, " xs=%v yu=%v ys=%v filters=%q\n", ps.XSlots, ps.YUsed, ps.YSlots, filters)
	}
	b.WriteString(plan.Describe())
	return b.String()
}

// derivationOf runs one analysed branch through the checker, optionally
// the optimizer, and plan generation (the bounded plan when covered, the
// partially bounded plan's sub-plan otherwise), and renders the result.
func derivationOf(db *DB, q *analyze.Query, optimize bool) string {
	chk := core.Check(q, db.access)
	if optimize {
		chk = opt.New(db.statsCat).Rewrite(q, chk, db.access)
	}
	if chk.Covered {
		plan, err := core.NewPlan(q, chk)
		return renderDerivation(q, chk, plan, err)
	}
	pp, err := core.NewPartialPlan(q, chk)
	if err != nil {
		return renderDerivation(q, chk, nil, err)
	}
	if pp.Sub == nil {
		return renderDerivation(q, chk, nil, nil) + pp.Describe(q)
	}
	return renderDerivation(pp.Sub.Query, chk, pp.Sub, nil) + pp.Describe(q)
}

// derivationPinsOf hashes derivationOf over the statement's UNION
// branches, optimizer off and on.
func derivationPinsOf(t *testing.T, db *DB, name, sql string) []string {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, _, err := db.parseLocked(sql)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var off, on []string
	for _, q := range tmpl.Parsed.(*parsed).branches {
		off = append(off, derivationOf(db, q, false))
		on = append(on, derivationOf(db, q, true))
	}
	return []string{fnvHex(off...), fnvHex(on...)}
}

// TestDerivationPin pins the coverage derivation end to end — the
// checker's verdict, bounds and steps, the optimizer's rewritten steps
// and estimates, and the bounded plan's key sources, slots, filter
// placement and rendering — on TLC Q1–Q12 at scale 1 and the first 200
// statements of the randomized equivalence corpus, optimizer off and on.
// Refactors of the checker, the optimizer or plan generation must leave
// every entry unchanged; a deliberate change of derivation updates the
// table.
func TestDerivationPin(t *testing.T) {
	type run struct{ name, sql string }
	want := make(map[string][2]string, len(derivationPins))
	for _, p := range derivationPins {
		want[p[0]] = [2]string{p[1], p[2]}
	}
	var got []string
	mismatch := false
	check := func(db *DB, r run) {
		h := derivationPinsOf(t, db, r.name, r.sql)
		got = append(got, fmt.Sprintf("\t{%q, %q, %q},", r.name, h[0], h[1]))
		if w, ok := want[r.name]; !ok || w != [2]string{h[0], h[1]} {
			mismatch = true
			t.Errorf("%s (%s): got %v, want %v", r.name, r.sql, h, w)
		}
	}

	tlcDB := MustNewTLCDB(1)
	for _, q := range TLCQueries() {
		check(tlcDB, run{q.Name, q.SQL})
	}
	n := 0
	for d := 0; n < 200; d++ {
		rng := rand.New(rand.NewSource(int64(1000 + d)))
		db := randomDB(t, rng)
		for qi := 0; qi < 40 && n < 200; qi++ {
			check(db, run{fmt.Sprintf("rnd%d", n), randomSQL(rng)})
			n++
		}
	}
	if mismatch {
		t.Logf("current table:\n%s", strings.Join(got, "\n"))
	}
}

// derivationPins: statement, hash optimizer off, hash optimizer on.
var derivationPins = [][3]string{
	{"Q1", "efcec89afffbc02b", "ffc1410113052954"},
	{"Q2", "6378ac3366f1f4bd", "42df38cadffdc97c"},
	{"Q3", "38559a2d6399c835", "1c3fb422709e8f36"},
	{"Q4", "5c79914d56cab179", "d29651cc6e963c44"},
	{"Q5", "3a012ea7aff3714e", "b2ace202180d27d0"},
	{"Q6", "3cdd2b5cfe1354f9", "db6043b89d65410a"},
	{"Q7", "e1eaba1dbef8b929", "cef2daea5dc6154d"},
	{"Q8", "3dbea9de344d5c9a", "561a67bf8b5ae16d"},
	{"Q9", "0f9d8f6bce03f555", "27d4a337c2d3507c"},
	{"Q10", "6859fbf291670888", "b605d9a45cbde5ba"},
	{"Q11", "55765eb65087dafc", "55765eb65087dafc"},
	{"Q12", "5faa4bd68c4bbf4d", "2a0b890f936a6ace"},
	{"rnd0", "b2e3e3afc7bdf946", "f394be73fc91062b"},
	{"rnd1", "2a2fb41ccce2c882", "59103510e477825d"},
	{"rnd2", "dcd81e9e23013a0c", "29716ff4a2136154"},
	{"rnd3", "4123f5397a77669b", "60f43cf1ea7957b9"},
	{"rnd4", "c077e4675ae394e5", "b4e917375580e1d9"},
	{"rnd5", "29a63971396f9a4f", "3530856eef387f66"},
	{"rnd6", "b3b4d47517e6f7e3", "723cd91fb0f0b87d"},
	{"rnd7", "80cbaf149b0699e1", "a3a59b396c856813"},
	{"rnd8", "4bf35b451ad710a5", "19b596e0abdcb6ba"},
	{"rnd9", "53f77b56e9c6c7cc", "5dc15d043da46ccf"},
	{"rnd10", "b522ce73fb0a5fc4", "bf3cbf6be3d93060"},
	{"rnd11", "7b9af6ef7fe894c4", "b5f0aa95976b92b4"},
	{"rnd12", "3ca05d9c4eb372a3", "bb1afb068dbb3c0a"},
	{"rnd13", "804f1e09a0f5bd65", "a821d2fbe674ebe4"},
	{"rnd14", "06a558688af38a1f", "73f3b18ec1a95a89"},
	{"rnd15", "78f5013d4f22c0ed", "2a34af7c6c5b2ed9"},
	{"rnd16", "77e87ea3269b5d0f", "265520575f5a74c9"},
	{"rnd17", "4d4118e19734bdfc", "d935042154addee5"},
	{"rnd18", "78633e5bf6923907", "55c5637d92829b19"},
	{"rnd19", "181fd6b01afe88bf", "77dd60c36ee25f22"},
	{"rnd20", "e9bb15013cf5d78f", "21072ef5f48f8c6b"},
	{"rnd21", "bde18efe09e1e878", "00751f0f9f1a228b"},
	{"rnd22", "f01aaf24b6a56857", "28e296eecfe12cea"},
	{"rnd23", "7976a19ddb848e68", "cd6b1ea09309d4f3"},
	{"rnd24", "215426677fa6fbe1", "c1bba99d0a296cb9"},
	{"rnd25", "29927ab0cd5d3d15", "bb18dcc72d4681d6"},
	{"rnd26", "a2fd2a76245af153", "e6f9c3ad378d6764"},
	{"rnd27", "c0435bb0022d6725", "7b177b11f6c47196"},
	{"rnd28", "b2c21d6057237c70", "709a128b080e53e1"},
	{"rnd29", "83b1c427943a903f", "9965efa26c613316"},
	{"rnd30", "b45accfbe54392d1", "9ca9628ced039971"},
	{"rnd31", "3b171c2ff2dbce15", "e530c6b2276070e4"},
	{"rnd32", "39794d89f141c9b0", "f11456621db10ce0"},
	{"rnd33", "8042c0ca5d7e601d", "e5c3eb709be0d576"},
	{"rnd34", "0e8fc624e1d4c437", "597d11a88f8b7b9d"},
	{"rnd35", "2d008735c7b199fc", "8f94d1da335d8dca"},
	{"rnd36", "c0b8516461d8e0d2", "9b4cf747067aa100"},
	{"rnd37", "c563588668d5e573", "c2a3b60bd760adf7"},
	{"rnd38", "5863432adf09aebe", "9c951f2f0abc4d7c"},
	{"rnd39", "fc53eeab6807208e", "a2cab5c21ca762c6"},
	{"rnd40", "1426a8510c89b8ec", "a5618be6a7a22109"},
	{"rnd41", "44625e22d031621d", "9a6a776a626aeb85"},
	{"rnd42", "ffdb0b4697e26aed", "61ce2bb5fb497f29"},
	{"rnd43", "cb90ba7f159f8c1f", "10f12d1483e94ad2"},
	{"rnd44", "6a8ec275e0e24399", "f4de79e56d8e135c"},
	{"rnd45", "a0c18f80b5f3d622", "515cded0de57e3a9"},
	{"rnd46", "141988ecc64ba9b6", "1e4dd8f308a0677e"},
	{"rnd47", "26e2e143e2a5b378", "3acc49cb31eb6f67"},
	{"rnd48", "7e129a07f9d587d9", "90c5838b6d97359c"},
	{"rnd49", "2477d068151c8f80", "e3bfefb087004b06"},
	{"rnd50", "1893b2cb81a082cc", "22b07490b6f26a4e"},
	{"rnd51", "1de10103a85b6c8e", "066ac04d014cf6bb"},
	{"rnd52", "d888407594d9f213", "46ffd1dea14593fb"},
	{"rnd53", "1af99aa764985666", "e1d35d1c03df21bb"},
	{"rnd54", "9aa44a78654f95d0", "fe0eb4dfb8f19ad1"},
	{"rnd55", "d3aa43c8df4dd1ec", "60124195d8c36354"},
	{"rnd56", "7a58ca3eee4722c3", "f3a94692f5fd9f3c"},
	{"rnd57", "788bc32fac52c3ca", "be0133e40c5c16a6"},
	{"rnd58", "01b30e4e7876541a", "d250fa2970efb5b0"},
	{"rnd59", "99b92a194bcca22c", "6adb7db5e5361a16"},
	{"rnd60", "bd944f84031a05f6", "d14350c075745e55"},
	{"rnd61", "92b2689269252b4a", "3ec72c6d58e9f53a"},
	{"rnd62", "ed6f38ef826d7261", "6f1504cc58cf4aea"},
	{"rnd63", "8d3de49c2ce8f8a3", "cfbf2e5e38f65df1"},
	{"rnd64", "b1fb10afec27c3ed", "e405f6b69cdc5ecc"},
	{"rnd65", "062330e940502853", "ddb7e3e487b23135"},
	{"rnd66", "b25f64130a8d0e80", "339fb9fd9a3e6dcd"},
	{"rnd67", "e627005f8549e784", "98e892bc52f36a43"},
	{"rnd68", "385879a777a40c49", "ffc2cc50d29b22c7"},
	{"rnd69", "4f968efdb80a2524", "05180ad13f3791d7"},
	{"rnd70", "d3eb025fa11ec62b", "2223001cfe5dcbde"},
	{"rnd71", "6257035c04554373", "c15a7d472fdf84d5"},
	{"rnd72", "f3b3e331d8183ccf", "8efe8f1e6f7322b5"},
	{"rnd73", "faed6f5886538f3e", "ae584cbfc288b42c"},
	{"rnd74", "f9093035eb598114", "3e4fff0b5bc2af2b"},
	{"rnd75", "4b6bc60db1b48e81", "3775c62c1a8e3122"},
	{"rnd76", "8e46a590dbae71d3", "d5bad4d6b00c1188"},
	{"rnd77", "0d3442f29532ef46", "527baf8f2175e61f"},
	{"rnd78", "cbde36cd99cc4513", "99aecdf882da575d"},
	{"rnd79", "19fcf2623f40c667", "4dd89826006daacc"},
	{"rnd80", "14f0f53594392be9", "5253047780ffd2dc"},
	{"rnd81", "aa30785709957c5a", "526a62ec9721c139"},
	{"rnd82", "11f8f1574d5e01a6", "d05123591fbb6988"},
	{"rnd83", "ed8ce2dd3459578c", "b91fbb8d0b1ed4b5"},
	{"rnd84", "92f0108f71c09632", "f757d08733c4617b"},
	{"rnd85", "a424b97a8a6a56ac", "53a0add992a51eb3"},
	{"rnd86", "6551b975de0d6e9c", "2848afec44c13b7d"},
	{"rnd87", "7a02ac44252d634c", "40a1092858a83de2"},
	{"rnd88", "5d96f598b104fe16", "0adabd1734cb84e0"},
	{"rnd89", "d3f8adf145f2ddfe", "5be85cc1228c0870"},
	{"rnd90", "bc5c35c444230483", "1d716f13fc672447"},
	{"rnd91", "ee046039a807e280", "fe761de870b18681"},
	{"rnd92", "5bc8c075c71843f4", "21609a861fd650c1"},
	{"rnd93", "dd655b0e5519b066", "17f706cbe13ff5fc"},
	{"rnd94", "23058174ac1cd3ab", "edc94667da29dbe4"},
	{"rnd95", "02b08da40fdbbe73", "7f2826b0e97e66dd"},
	{"rnd96", "749f7c98a6d9bf63", "d14e962c3001a23c"},
	{"rnd97", "b7bf7a25510abce0", "34aad84295479bed"},
	{"rnd98", "b854489833993d12", "edaa9dd503631fe5"},
	{"rnd99", "60b5e8ffeb3591da", "aa4f0722f6bbffda"},
	{"rnd100", "d70765c74c486e8d", "7c625e5cf0fbb35d"},
	{"rnd101", "9d11a5ec4cfd837d", "92812b1336365457"},
	{"rnd102", "84e527b0110160d6", "1140855080794c55"},
	{"rnd103", "6c5a0259705bdba3", "603bfbc0a6ae51dd"},
	{"rnd104", "4f19c9d17ff3cb88", "56af1381a5fa8782"},
	{"rnd105", "34b96f548de4bad7", "28e3f0530dc8380e"},
	{"rnd106", "2f6426783e077d67", "5224cb55f14d0d13"},
	{"rnd107", "f54565db791dbb3b", "04e1fef5275a1685"},
	{"rnd108", "b5ff65baf2d2a360", "6400ce4d80fdc059"},
	{"rnd109", "92bb42a9c58d63ab", "e9aad3d08e80fbc1"},
	{"rnd110", "23373af64075764b", "8887ee45b18ad27a"},
	{"rnd111", "4ba7bc46303ff46e", "c060ffe5583a360d"},
	{"rnd112", "2c53d6e2f08d9cd7", "b8dc9495fe7b55c9"},
	{"rnd113", "ec38e0218eae10e3", "c22d804c1b05fa30"},
	{"rnd114", "987671e0c589ec6e", "3b7e23c01368d1a8"},
	{"rnd115", "c33b93f9d146d849", "4549135e676f4526"},
	{"rnd116", "1889b3df386f77ea", "5f1c4220885bee4e"},
	{"rnd117", "a882f7ff2cf5169a", "0a57a054ba998085"},
	{"rnd118", "80f1f54dd6d91eee", "b44a2b4e3c728076"},
	{"rnd119", "9eadd2246688a446", "e3bfc0561ff40e67"},
	{"rnd120", "4f2a00c1c894fedc", "b4623a11335c2767"},
	{"rnd121", "5e1d84d76a715ec8", "ec061f5418c2a8a0"},
	{"rnd122", "a8c5f6a9b345d404", "5b06d290903eb8fc"},
	{"rnd123", "7f962efa89e4eae0", "85fad9bd4825a13b"},
	{"rnd124", "7cf565c7e52f373a", "1fd35c6b8132cfbc"},
	{"rnd125", "1c3301846353a959", "c13d88235173876d"},
	{"rnd126", "8262bf445aef0809", "4ade5df71a2118ef"},
	{"rnd127", "ea75a1c9fcd05eb9", "0e637dcaf33faed5"},
	{"rnd128", "92c2eecf4e972a48", "295494da5189fe1c"},
	{"rnd129", "91fcc71b41834c05", "e39d9dd65f3f271c"},
	{"rnd130", "7a8288d7463ea611", "f05510c3fd75ee21"},
	{"rnd131", "846487abada64077", "c22b77f9c5767546"},
	{"rnd132", "fd3d446c555ac5bb", "107fa72191383e4f"},
	{"rnd133", "14c31a76d7b69df6", "c91d52e2f418fe70"},
	{"rnd134", "905e7884daa64383", "45d1e78ae9132048"},
	{"rnd135", "b3aab52a22dfd3e3", "d088546cbfdc2ca8"},
	{"rnd136", "c2884741e1db80fb", "3fef5ee2622b4513"},
	{"rnd137", "c7614f3d30c65aaa", "12b1336de5ab69ff"},
	{"rnd138", "0869ad270f0bcee2", "9b457a457c773ad5"},
	{"rnd139", "a8625922687294d8", "55e2ad59fc61618b"},
	{"rnd140", "290112e3330a64da", "9289a5efab6958a5"},
	{"rnd141", "27988cacf2b4f895", "9805a6dbb1196ffe"},
	{"rnd142", "c6ea7cd8344a9c8c", "bbde2769af05baa8"},
	{"rnd143", "7bd31e1378bf3614", "f3340fc0dbcfacfc"},
	{"rnd144", "c3b2b37993192dfa", "a6122993feacd47a"},
	{"rnd145", "8dc9536090214140", "600111f7b067595a"},
	{"rnd146", "40fd93921ab94059", "c3deff60f3405b9c"},
	{"rnd147", "59395c9b9818795e", "c5dd517b4a20b95c"},
	{"rnd148", "61b894709bd395bf", "7606ad08620dd33d"},
	{"rnd149", "dead9ecb6d39ebfd", "ecc090b934d0532a"},
	{"rnd150", "d246f55c37750897", "50124a72252915e2"},
	{"rnd151", "3ea607f29d64ce78", "2bfc4ab2b79f36b7"},
	{"rnd152", "b460e4edce0fc9ee", "5c0ed146f81ba1ac"},
	{"rnd153", "26cf0ba47ba639f9", "aeefd4eb06fe0d4e"},
	{"rnd154", "96c66be7febcbb70", "cd148abb705f574e"},
	{"rnd155", "18a62fdcef4cdb54", "29ff6bfccbb94667"},
	{"rnd156", "f9532088fc6fc24e", "e8b8494946ac49ca"},
	{"rnd157", "49d4a805be6284b2", "5df398a2fe6c771b"},
	{"rnd158", "8851902f5e086c36", "2bdf173c78752f9a"},
	{"rnd159", "41fd5142e3937a49", "4c29b2f92f6c3c50"},
	{"rnd160", "5134c6344396b6bd", "18bfdc7f555fe0f4"},
	{"rnd161", "0240956138cba04b", "a644a6cee8f8ce3c"},
	{"rnd162", "f9326a6604cb34ea", "42dfa6f7c9c25f05"},
	{"rnd163", "fd7494b3ebda33de", "32ddd3bd174edbd3"},
	{"rnd164", "84f3a669e0f6a8c1", "2810003046e2e1a5"},
	{"rnd165", "545d8e2a43c7a4d0", "a2dcf58f096eb0e8"},
	{"rnd166", "13d9bf28a7220eb7", "23200e97fd74c1e4"},
	{"rnd167", "6e20388407437824", "54a3efbbe959a67f"},
	{"rnd168", "ae0cd20b4ab4a494", "672336f427bdc4fe"},
	{"rnd169", "068ae51c8913eefa", "fcf6b98d50bcf75a"},
	{"rnd170", "7a3a3ff4595e200d", "ca73086473ac58d7"},
	{"rnd171", "85219ad73c2366d3", "df80815f3b963d68"},
	{"rnd172", "34ae0d0a98b4618d", "d0b621cc226ed286"},
	{"rnd173", "2d54227118d490f3", "0f1e6900b81197f7"},
	{"rnd174", "7fb5e45fd744db4c", "b9e4cff5c9312373"},
	{"rnd175", "28ff0e8f9f20d8f7", "e949a203a94545db"},
	{"rnd176", "b66d9f1048dae99c", "055243e3697a6290"},
	{"rnd177", "cea3b660270e31f7", "01b5838b6d465c4b"},
	{"rnd178", "e18dca26c2f2da2b", "5d19c7f5bc7392cf"},
	{"rnd179", "08b5af95572cb31c", "cb9a7c8db27e8d70"},
	{"rnd180", "99036afd1aa6dc1c", "a24c0d553c03979f"},
	{"rnd181", "61a863ce023c3362", "6b07e35a2a64b3aa"},
	{"rnd182", "25960acb1fbaa042", "c06f8e1c511da93e"},
	{"rnd183", "990f690424a5cfeb", "b6b51facae9a6146"},
	{"rnd184", "8149f618c43bd761", "f7fd246b371687c9"},
	{"rnd185", "4a25de7747b61b92", "6505cf2be5b9fc1c"},
	{"rnd186", "6b625bf2136245d0", "8068139eeb11982b"},
	{"rnd187", "94c2588994366d6a", "c06c5d58b6bfbd60"},
	{"rnd188", "4c7749ecab7be4d5", "fd9a05e204272989"},
	{"rnd189", "051d1c1840215b41", "84c583073396db14"},
	{"rnd190", "2a86450a442c5032", "2f4bca1b35bb178a"},
	{"rnd191", "7aae10a775e0d8c4", "346e53549e04ae54"},
	{"rnd192", "4ac6f22386158fd0", "979579d735de31f2"},
	{"rnd193", "00f61cb5c835816c", "8f14e79a9e322fd9"},
	{"rnd194", "b5b41fbf7b3c9b14", "9850bec1646fcd98"},
	{"rnd195", "3f161065627106c0", "0b2eb64ffa093cd0"},
	{"rnd196", "8a962f238fe1eeeb", "a86b3b7cdec15176"},
	{"rnd197", "077419e4ad46e90c", "8d1d5862e4b3f31c"},
	{"rnd198", "87a07bc76a479aaa", "dae299c601bd1001"},
	{"rnd199", "96e98b7538d25dae", "c7da1fd6f60a439c"},
}
