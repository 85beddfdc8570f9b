// BigInt arithmetic: identities, division invariants, Montgomery modexp
// against a reference implementation and offline known answers, the
// binary-GCD inverse, the exponentiation work counter, primality.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/csprng.hpp"
#include "obs/metrics.hpp"

namespace dcpl::crypto {
namespace {

BigInt random_bits(std::size_t bits, Rng& rng) {
  Bytes b = rng.bytes((bits + 7) / 8);
  std::size_t excess = b.size() * 8 - bits;
  b[0] &= static_cast<std::uint8_t>(0xff >> excess);
  return BigInt::from_bytes_be(b);
}

TEST(BigInt, BasicConstructionAndHex) {
  EXPECT_TRUE(BigInt{}.is_zero());
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_EQ(BigInt(0x1234).to_hex(), "1234");
  EXPECT_EQ(BigInt::from_hex("deadbeefcafebabe1122334455667788").to_hex(),
            "deadbeefcafebabe1122334455667788");
  EXPECT_EQ(BigInt::from_hex("00000001").to_hex(), "01");
  EXPECT_EQ(BigInt::from_hex("abc").to_hex(), "0abc");
}

TEST(BigInt, BytesRoundTripAndPadding) {
  BigInt v = BigInt::from_hex("0102030405");
  EXPECT_EQ(to_hex(v.to_bytes_be()), "0102030405");
  EXPECT_EQ(to_hex(v.to_bytes_be(8)), "0000000102030405");
  EXPECT_THROW(v.to_bytes_be(4), std::invalid_argument);
  EXPECT_EQ(to_hex(BigInt{}.to_bytes_be()), "00");
}

TEST(BigInt, BitLengthAndBits) {
  EXPECT_EQ(BigInt{}.bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(0xff).bit_length(), 8u);
  EXPECT_EQ((BigInt(1) << 100).bit_length(), 101u);
  BigInt v = BigInt(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt(1) << 64, BigInt(0xffffffffffffffffULL));
  EXPECT_EQ(BigInt::from_hex("ff"), BigInt(255));
}

TEST(BigInt, AddSubIdentities) {
  XoshiroRng rng(11);
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_bits(256, rng);
    BigInt b = random_bits(200, rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
    EXPECT_EQ(a + BigInt{}, a);
    EXPECT_EQ(a - a, BigInt{});
  }
  EXPECT_THROW(BigInt(1) - BigInt(2), std::invalid_argument);
}

TEST(BigInt, AddCarryChain) {
  // (2^192 - 1) + 1 = 2^192.
  BigInt max = (BigInt(1) << 192) - BigInt(1);
  EXPECT_EQ(max + BigInt(1), BigInt(1) << 192);
}

TEST(BigInt, MulIdentities) {
  XoshiroRng rng(12);
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_bits(300, rng);
    BigInt b = random_bits(300, rng);
    BigInt c = random_bits(100, rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * BigInt(1), a);
    EXPECT_EQ(a * BigInt{}, BigInt{});
  }
}

TEST(BigInt, ShiftsAreMulDivByPowersOfTwo) {
  XoshiroRng rng(13);
  for (int i = 0; i < 20; ++i) {
    BigInt a = random_bits(200, rng);
    for (std::size_t s : {1u, 13u, 63u, 64u, 65u, 130u}) {
      EXPECT_EQ(a << s, a * (BigInt(1) << s));
      EXPECT_EQ((a << s) >> s, a);
    }
  }
}

TEST(BigInt, DivModInvariant) {
  XoshiroRng rng(14);
  for (int i = 0; i < 100; ++i) {
    BigInt a = random_bits(50 + (i * 13) % 700, rng);
    BigInt b = random_bits(1 + (i * 7) % 400, rng);
    if (b.is_zero()) b = BigInt(3);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, DivModEdgeCases) {
  EXPECT_THROW(BigInt(1) / BigInt{}, std::invalid_argument);
  EXPECT_EQ(BigInt(7) / BigInt(7), BigInt(1));
  EXPECT_EQ(BigInt(7) % BigInt(7), BigInt{});
  EXPECT_EQ(BigInt(6) / BigInt(7), BigInt{});
  EXPECT_EQ(BigInt(6) % BigInt(7), BigInt(6));
  // Knuth-D "add back" territory: divisor with high limb pattern.
  BigInt a = BigInt::from_hex("7fffffffffffffff8000000000000000");
  BigInt b = BigInt::from_hex("80000000000000000000000000000001");
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
}

TEST(BigInt, DivisionStress) {
  // Dividends crafted to exercise qhat correction paths.
  XoshiroRng rng(15);
  for (int i = 0; i < 200; ++i) {
    BigInt b = random_bits(65 + i % 256, rng);
    if (b.is_zero()) continue;
    BigInt q0 = random_bits(1 + i % 128, rng);
    BigInt r0 = random_bits(b.bit_length() - 1, rng);
    if (r0 >= b) r0 = r0 % b;
    BigInt a = q0 * b + r0;
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q, q0);
    EXPECT_EQ(r, r0);
  }
}

// Reference modexp via repeated divmod (no Montgomery).
BigInt naive_mod_exp(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % mod;
    if (exp.bit(i)) result = (result * b) % mod;
  }
  return result;
}

// Odd modulus of exactly `bits` bits.
BigInt random_odd_modulus(std::size_t bits, Rng& rng) {
  return (random_bits(bits - 2, rng) << 1) + (BigInt(1) << (bits - 1)) +
         BigInt(1);
}

TEST(BigInt, MontgomeryMatchesNaiveModExp) {
  XoshiroRng rng(16);
  for (int i = 0; i < 30; ++i) {
    BigInt mod = random_bits(128 + i * 8, rng);
    if (!mod.is_odd()) mod = mod + BigInt(1);
    if (mod <= BigInt(1)) mod = BigInt(3);
    BigInt base = random_bits(200, rng);
    BigInt exp = random_bits(64, rng);
    EXPECT_EQ(base.mod_exp(exp, mod), naive_mod_exp(base, exp, mod))
        << "i=" << i;
  }
  // Exponents of 33-600 bits through both schedules: the public
  // square-and-multiply and the secret fixed window. Edge cases: 0, 1,
  // all-zero windows below the top bit, all-one windows, and alternating
  // zero/one runs.
  std::vector<BigInt> exponents = {BigInt{}, BigInt(1)};
  for (std::size_t bits : {33u, 64u, 65u, 79u, 80u, 128u, 383u, 511u, 512u,
                           600u}) {
    exponents.push_back(random_bits(bits - 1, rng) + (BigInt(1) << (bits - 1)));
    exponents.push_back(BigInt(1) << (bits - 1));
    exponents.push_back((BigInt(1) << bits) - BigInt(1));
    BigInt runs;
    for (std::size_t b = 0; b < bits; ++b) {
      if ((b / 7) % 2 == 0 || b + 1 == bits) runs = runs + (BigInt(1) << b);
    }
    exponents.push_back(runs);
  }
  for (std::size_t mod_bits : {192u, 1000u}) {
    const BigInt mod = random_odd_modulus(mod_bits, rng);
    const Montgomery mont(mod);
    for (const BigInt& exp : exponents) {
      const BigInt base = random_bits(mod_bits + 7, rng);  // reduced inside
      const BigInt want = naive_mod_exp(base, exp, mod);
      EXPECT_EQ(mont.mod_exp(base, exp), want) << exp.to_hex();
      EXPECT_EQ(mont.mod_exp_secret(base, exp), want) << exp.to_hex();
    }
  }
}

// Known answers computed offline with Python's pow(b, e, m).
struct ModExpKat {
  const char* m;
  const char* b;
  const char* e;
  const char* r;
};
constexpr ModExpKat kModExpKats[] = {
  // 1024-bit modulus, full-width exponent.
  {
    "89fb9aff0cec0f95275a90aa36b302698710ec44abb26ca6a13cad1e38f0f413"
    "8e7baf14171d86446d5351713f05236110c440e0341fedd28223fbeb52921f4a"
    "083212df25e4e68b14f4ddc07ec5ff12cbb7fbcfdbfc54d4a697e4850ff715a1"
    "7b3b7105366eb15e50502bccd16ac3b6a6deca95bec239a475b0124ec6348ff7",
    "b5c9e7187b6c1df8f77c709e121bc1dad3d77541f4f2f213fa9f04d933e5974c"
    "3390389e60e7acfa9dfc8507b490bfaa5fe16f4b6e2b287efb0a8795cf7a02eb"
    "f5acc2f0eea448fb4ab8e697aa352c9fb7eb3d922fa4dee9fd3f63b583a530bf"
    "bf286d50e89daae6fa4da15ecab4ef07647e38538e3107e81877e50624bf271",
    "b8acbf0a8d30733301afa18130e1ebc3dbe29fe7b178a44865b7de6817824711"
    "adb7640e3117e2d7fecb725b184fe7c55de847af0bcc1920ec5329f117c1f607"
    "23784d7af28be3099ac4c81b91a1e3864fc5ef452b83b066521bcc62f46fdd62"
    "772ce3bb3734a5e37536887ffee68aa534f8f0c6ff9873218191d5f60ca0e06a",
    "c2f88d932eca9108536339ad0823c72f4101ba57d61344b8dba4a3ac56a0eaf3"
    "0fcb9a08ae444ef5fd22f82b74d50df956a5b7910dd6aa64e6915a5a145cc9e7"
    "48d9e906d83d1e05fd3a65fe8b62e606fe85e833404bf9b7bf9eb4a22706cf20"
    "2e40ba0eda4693b800021f75e5d2ed662b8d5b879420feb2c4ae64e2089d9ee"},
  // 2048-bit modulus, full-width exponent.
  {
    "b36eb078d07198b4fcac77b102c6151149b1ad6c2976bfa8920c048f7e69158b"
    "e6842d2bc6f0277d85bd4b2676c2f6fc2cf7f72fa2321501e29a78f8d87438c0"
    "fe53ecd2eb3929bba2a4fccc1dae528b0cb42de52c35843758e4c875ddd9a43c"
    "2521e8828caef9458bee9114af56deaaa3d7b3dec6da74d8b900dadd1058c0ea"
    "3242de598563d61204930310dbce0575040c935c376f42a93d1245e071d4a8be"
    "d46355da75af2b016bf57e11744eded55b53b5817abfa52dce6726be481082f2"
    "2e44cf79a6d4941fbff90df63598324064b47a02665aa2c62832da55ac11cbdd"
    "212c23519d288c6c66e404628115a8f4a2fce1358a2454f4e563c44b66f07b4f",
    "7967b23bddf03bda973b43d281f923026b0509a848a489bcf7c5cc2a848f31ec"
    "c181f4390da6904d55453440696cb95e0b8c5f3ecc3d9acddf6f528563e850d6"
    "7d396c76a6bc75d3c9f81e017f7438834d89aa3e6f46765a00b2469d9e00d305"
    "23bc9c78e705545772d7f861e100faff39a2527f0611c2106379fb5695f86116"
    "f7c338fa61ac2fe7b90448808f7f707360f471bd15824f6cabf539b81c3d5d08"
    "7c69994b79d46e19efa1253ec146ab8eeb0cebeb4449dc16174c85a9a0d878b9"
    "706638063826e0a2550ac5be7a2209086107f57b393b3718b197f0b08a47862d"
    "736715e4ad9011ed71a16af7aac66b404161819f4660b5515d94bab7adbf9e4a",
    "89415ff47609795fbbe140d05815bd8764e4eda8c94c28fe463f8ad577340966"
    "16f9bf7d341494e7bbe88a786bfb787779978427aa3c43b7bcc05fe8375f60b9"
    "de956ae4097cec695869dc79f332b9e5ac938a8cd91a677e7779493ea5d979db"
    "ea4caf5456e2c8862861ee4f711a863ba693127cda5a96374b9ef33e26460da4"
    "1865a1afea96c4744f6771318aa3d6b428f768551a86bc176e31036bb6b3b509"
    "58425531a3e7e4a4eb116021b57e87f580b8fed90d3938ba340d46f38b7e2707"
    "c2af14c75b7ad50b51234f90d16f7154c9064a7637c4809331308b530f0edae1"
    "e0266258a1ec10ed319b5cec10547073218ba5b29b4bd60ddef98a7dcd76d9c2",
    "2b545e83d4e93f7dc51b46bae729d39e57edd8992f931ebbef3a44bd3eff537d"
    "6e04ab33bb1ebef417150354e136ce2ee5d1a913d1b1071fc106a149a2043587"
    "591f546721af0b4b26136545f69e57c76504fcee416621b4078b2ce8c1a83d3d"
    "efe91646b840e8deb28cd7f7edc4f909b0b6648357d96955f718ff589d922c0f"
    "09cf9aa588a16a928cfa982b99e59b42f3e0e93d50ec1e63ef8e213c92c50faa"
    "3ed1ca83535f2ea615a3b9eeae2b1160949dfeb91c10b01cca6b732eebf39b06"
    "4e726d861ef9636a834bee058f32fd688fa49348f8073f9f8d157b898d27b473"
    "bdbfaf12f214e25cee4618d7c351dbd59e5b075f640ffe35737de6885d49f1f"},
  // 1000-bit modulus, full-width exponent.
  {
    "dba9dfd4ee49c4d7079412593096854e3a2170213ce2ca21333a1c76fc83f481"
    "fccb15fc4505a4927003c8e470101f333399290f10c9532b338487af11100f24"
    "941afdb55d249a6e3628d5be856085c7776bd0cd7b2bbb299bf20c826980262d"
    "25cd742e1fdfec68a8c9c7017ade528fb1f286939a564ddb996dfd6e75",
    "1c841d8095f3e49f35ba7f9d9cf848374daa06073a569e6dd3b107d6c7ab318b"
    "66b8aa87ba0e5d156dd2bd0c8dca3d62f5635769800f84f24b2c8ff9f41acc07"
    "53ff2baf53eb255ad5ee40e48f57636bd60753cf774252aa29e0ff318ae85184"
    "5fe9bdf961aa66acf81df5f636b15355a01f8750efe1a507d7c7e7e1bd",
    "df07b8bb4fbe26bf6f449325ec2e0fcb3f5e75756a1eda249504c6a4412c0308"
    "ed99fc7ce16fab571ac6d066fc056a1f04f8cea74266e9f648bba87d6fd85438"
    "9765a0303dce90450e12bf998ddb94aabf41f8b4c36541f60d1f05a4f755b5e8"
    "b034e868d8cb9ccfc73ec462e5f059c700eb484fdcaa69f9ebb80bcd8d",
    "15fd97c96e288f179aefc4587c636411b04fcbfdc6fee480414e408629ad6eb2"
    "3fd131a46bceef3eb2c5a6c562c013724de4be158682f203314632dd987d397f"
    "bbf63d093954ad80c5aa815f493228bf0b3c8ae1ddd9bc9f62d77329a70ac4ea"
    "b874cead2959f57eea2badc30c8e7d8099abc1dce8a3b01b2c743e1008"},
};

TEST(BigInt, ModExpKnownAnswers) {
  for (const ModExpKat& kat : kModExpKats) {
    const BigInt m = BigInt::from_hex(kat.m), b = BigInt::from_hex(kat.b),
                 e = BigInt::from_hex(kat.e), r = BigInt::from_hex(kat.r);
    EXPECT_EQ(b.mod_exp(e, m), r) << m.bit_length();
    EXPECT_EQ(Montgomery(m).mod_exp_secret(b, e), r) << m.bit_length();
  }
}

// Known answers computed offline with Python's pow(a, -1, m).
struct InverseKat {
  const char* m;
  const char* a;
  const char* inv;
};
constexpr InverseKat kInverseKats[] = {
  // 1024-bit modulus.
  {
    "a9684761eadb283d216b6020c9f578762aabb8a82cc7858a4af0f355a58d409d"
    "4c57a0355ae8c255154c9c6b1012bb233ec6d2bebfe0b4dabbf4eb5591fccccb"
    "4df9c46a5ed457f0c13825cc1ed8c185850f0dc792bbea60cc82d82c3f072711"
    "6decc86b9c6265496583bc234c9d3cf9d6ea2fad9fce9e3e951d7788c9ffb943",
    "2e4ad7b4d67bbacdd1a7f9bf6144aa48478e7be78120f0912f270c05e9d8fc36"
    "eecc49d79aad0fc118a55928305df25571c4d13ac68c830af8c997b24e3a9b67"
    "c7f345f4c7853941b71b358a5c05600e60a796c9949759694a7f653398bcfe31"
    "505757f74bba44978433af3c1b37d8fd660566988aabf71e646b082f13a763da",
    "3beadd5a76017e94c996611e7d99e1446eebbc7e8475ac081d84449716aac7ec"
    "1e3e9983603cb66012f2bf61f8e2b7331ee8c517f18ba4385d1e36e49986c4ea"
    "10e7e1d72b5dab339e20251c31b0023716048f6ae4ca6f6b7f7e82b4e9753fe7"
    "cfbdf2ade3a49d53df3c4039e171eb72f119a52e42d976b3b881e3ed8b441737"},
  // 2048-bit modulus.
  {
    "9ec5ea81852328ed8396e80361fb2dc048d5cb6240ce40558598ed647415048f"
    "bdcdc29b741cb601ef9062c05a490acad171187e870dcf82119cea13d3165e53"
    "226f1598c3caed2eefc194714fb3914b7028ffc02da27b0ae8c3039fcff89e55"
    "30889fb3bc3e4c414f9cac035346f7299840f2e4d3f819db3a145e3fc39fd836"
    "4a74dc3819acdc948664f647a70dd7df7e1c260b7dc7b51158f993adc2740193"
    "28c7b10464be47f9db74c37fc59c517eef8568c12eadab4b5f7d0e33a1e511c9"
    "d4ec43273c6d8f4c59d77fa59427638afd9092f32ea8d4357bed97dbae929c62"
    "b8f3511cccbb7cd35d3d6188f4bcb3934f5dce83c174957691524018a85242a5",
    "2b6ff43f18e5fb29d723991583f7be99bfb825e4c4db9743e109f1d55a555875"
    "dc883ac26a3e5190c56feafed36a193383a41b917d61e8f47885c1272909bc73"
    "fe5abcbca35954854dd1abe38319e8dd9bef63191451b984d6e7940e8cf87435"
    "59c458b071ef37f0c3fd08d14d6b6d8f71c7a847a58b93d2de23bcc07c4563c6"
    "52b70b147e7bd11fe5373988141cbc155baf0f6ed779e18cf33dda69bc6367ca"
    "1402a0a7dbf2172fbff435d7c27109572246ab675c4aebc48ea2c26319ada4d4"
    "865fcd7cd05b661d1f6ccfb5fcae50a774c4d98e6c87fbc16e332d69421cb978"
    "781b64511da3d3cf2015c198e7feb4d99fea5f238cd59e3cdf82aa3b095c985e",
    "697cdf6ad2089cd4b4d65631dbfb3e026b198ce69755f347586ed54c36c49dec"
    "357ac1ec6e14b81b25ba34ce24a47500adcdf594e41209289bae80737b618cfc"
    "f565ab3e5f69809f944afbb0c79c67dc9892b824fd3fe2f45c66526e19778855"
    "9055559d9a1bdcd6389924c360024119b8fc57ff08638710774a017039ec6693"
    "c00000287acd8337e6db0c513168430c368a8c58cad7d391681db9bcd2ea7464"
    "c72c6d89c04cf75263b3a6bc18366906cd8402357d66e6578bd13de21c84af0e"
    "a851ff8a8ec44f2f0f255d0910fa4e8534cbc3e9a237d632a623136bf73f3b4a"
    "51fac5b28c9d001cff20577dcb01f297099be27bb73e3f6467b7ca73bd2704d4"},
  // 1000-bit modulus.
  {
    "d9da4ee45f815c9379d71a738759161b4bbc8adaaf35bffb43b5086949628d10"
    "8228e4aa4c56a19371678879acc38e561e9c96635c3ba4f89fb9b3c69a5b49df"
    "8607400b060e67495573c0c690256e1515ac86a5d7632a449920f1ba6ea5b972"
    "dd44fea2ccf5f0686c33d067fb4613a2ef2da48df5f8ef1e199673b5a7",
    "1eb25e823c30e45cb29f9db730bf286beca5e1e300bb5ee3ed4e22f169b5f3d9"
    "3c1f36e8aee054ec158d7558504ec0f9f289f11930afa7b0efa235a7573abcab"
    "610a05dc18da8acd8504cfb7fa229140d08c7fc5c888dbf3f045f76761569a31"
    "af91cbf37dcbbe49fec0ad81286909afc43f4959be0656394d83fab543",
    "7bc7ec9a6823cd81f654f838e06c66e2878a3093f6ab68d40853cec526a95c1f"
    "368346263a144f0c503c7b11e1c1ef344fd8321ac0332d2bc734b0e97139808d"
    "ce9d53fffa03bebdc58eb48b96a04227263ecaede6c1623ef9320bcab6fac89b"
    "46c6b534a4dafbec440475f96a5bd4c9931faa21a71c1b360f75afc2eb"},
};

TEST(BigInt, ModInverseKnownAnswers) {
  for (const InverseKat& kat : kInverseKats) {
    const BigInt m = BigInt::from_hex(kat.m), a = BigInt::from_hex(kat.a);
    std::optional<BigInt> inv = a.mod_inverse(m);
    ASSERT_TRUE(inv.has_value()) << m.bit_length();
    EXPECT_EQ(*inv, BigInt::from_hex(kat.inv)) << m.bit_length();
  }
}

TEST(BigInt, ModInverseMatchesDefinition) {
  // Random and structured values mod primes p and products p*q: the
  // inverse exists exactly when neither factor divides the value, and then
  // a * inv = 1 (mod m). Widths straddle limb boundaries.
  XoshiroRng rng(25);
  for (std::size_t bits : {16u, 32u, 63u, 256u, 500u, 512u}) {
    const BigInt p = BigInt::generate_prime(bits, rng);
    const BigInt q = BigInt::generate_prime(bits + 1 + bits % 3, rng);
    for (const BigInt& m : {p, p * q}) {
      std::vector<BigInt> values = {
          BigInt{},      BigInt(1),     BigInt(2),
          m - BigInt(1), m - BigInt(2), (m + BigInt(1)) >> 1,
          m + BigInt(2), p,             q,
          p * BigInt(2), BigInt(1) << (m.bit_length() - 2)};
      for (int i = 0; i < 20; ++i) {
        values.push_back(random_bits(m.bit_length(), rng));
      }
      for (const BigInt& a : values) {
        const bool invertible =
            !(a % p).is_zero() && (m == p || !(a % q).is_zero());
        std::optional<BigInt> inv = a.mod_inverse(m);
        ASSERT_EQ(inv.has_value(), invertible)
            << m.to_hex() << " " << a.to_hex();
        if (inv) {
          EXPECT_LT(*inv, m);
          EXPECT_EQ((a * *inv) % m, BigInt(1))
              << m.to_hex() << " " << a.to_hex();
        }
      }
    }
  }
  // Consecutive Fibonacci numbers: Euclid's worst case.
  BigInt f0(1), f1(1);
  for (int i = 0; i < 1400; ++i) {
    BigInt f2 = f0 + f1;
    f0 = f1;
    f1 = f2;
  }
  const BigInt fib_mod = f1.is_odd() ? f1 : f0;
  const BigInt fib_val = f1.is_odd() ? f0 : f1;
  std::optional<BigInt> inv = fib_val.mod_inverse(fib_mod);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ((fib_val * *inv) % fib_mod, BigInt(1));
}

TEST(Montgomery, SecretScheduleCostDependsOnlyOnLength) {
  // The crypto.mont_mul work counter gets each exponentiation's product
  // count: equal for secret exponents of equal length, whatever their
  // Hamming weight. Square-and-multiply, for public exponents, differs.
  XoshiroRng rng(26);
  const Montgomery mont(random_odd_modulus(512, rng));
  const BigInt base = random_bits(500, rng);
  const BigInt light = BigInt(1) << 511;                  // weight 1
  const BigInt heavy = (BigInt(1) << 512) - BigInt(1);    // weight 512
  const obs::Counter& counter = obs::op_counter("crypto", "mont_mul");
  const auto cost = [&](auto&& exponentiate) {
    const std::uint64_t before = counter.value();
    exponentiate();
    return counter.value() - before;
  };
  const std::uint64_t secret_light =
      cost([&] { mont.mod_exp_secret(base, light); });
  const std::uint64_t secret_heavy =
      cost([&] { mont.mod_exp_secret(base, heavy); });
  EXPECT_EQ(secret_light, secret_heavy);
  // Window 4 over 512 bits: 14 table products, 127 windows of 4 squarings
  // and a multiply after the top one, and the two domain conversions.
  EXPECT_EQ(secret_light, 14u + 127u * 5u + 2u);
  EXPECT_NE(cost([&] { mont.mod_exp(base, light); }),
            cost([&] { mont.mod_exp(base, heavy); }));
}

TEST(BigInt, ModExpSmallKnownValues) {
  EXPECT_EQ(BigInt(2).mod_exp(BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt(5).mod_exp(BigInt(117), BigInt(19)), BigInt(1));  // Fermat
  // Even modulus path.
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(4), BigInt(100)), BigInt(81));
}

TEST(BigInt, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p = 2^61 - 1.
  BigInt p = (BigInt(1) << 61) - BigInt(1);
  XoshiroRng rng(17);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(a.mod_exp(p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, ModInverse) {
  XoshiroRng rng(18);
  BigInt p = (BigInt(1) << 61) - BigInt(1);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    std::optional<BigInt> inv = a.mod_inverse(p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ((a * *inv) % p, BigInt(1));
  }
  // Composite modulus with coprime value.
  BigInt n = BigInt(91);  // 7 * 13
  EXPECT_EQ((BigInt(2) * *BigInt(2).mod_inverse(n)) % n, BigInt(1));
  EXPECT_FALSE(BigInt(7).mod_inverse(n).has_value());
  EXPECT_FALSE(BigInt{}.mod_inverse(n).has_value());
  EXPECT_THROW(BigInt(3).mod_inverse(BigInt(10)), std::invalid_argument);
}

TEST(BigInt, RandomBelowIsUniformEnough) {
  XoshiroRng rng(19);
  BigInt bound(1000);
  int low = 0;
  for (int i = 0; i < 2000; ++i) {
    BigInt v = BigInt::random_below(bound, rng);
    ASSERT_LT(v, bound);
    if (v < BigInt(500)) ++low;
  }
  EXPECT_GT(low, 800);
  EXPECT_LT(low, 1200);
}

TEST(BigInt, KnownPrimesAndComposites) {
  XoshiroRng rng(20);
  EXPECT_TRUE(BigInt(2).is_probable_prime(10, rng));
  EXPECT_TRUE(BigInt(65537).is_probable_prime(10, rng));
  EXPECT_TRUE(((BigInt(1) << 61) - BigInt(1)).is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt(1).is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt{}.is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt(65536).is_probable_prime(10, rng));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(BigInt(561).is_probable_prime(10, rng));
  // 2^67 - 1 is composite (193707721 * 761838257287).
  EXPECT_FALSE(((BigInt(1) << 67) - BigInt(1)).is_probable_prime(10, rng));
}

TEST(BigInt, GeneratePrimeHasExactBitLength) {
  XoshiroRng rng(21);
  for (std::size_t bits : {64u, 128u, 256u}) {
    BigInt p = BigInt::generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(p.is_probable_prime(10, rng));
    // Top two bits set.
    EXPECT_TRUE(p.bit(bits - 1));
    EXPECT_TRUE(p.bit(bits - 2));
  }
}


TEST(BigInt, KaratsubaMatchesSchoolbookProperties) {
  // Operands above the Karatsuba threshold (24 limbs = 1536 bits): validate
  // via algebraic identities against the (schoolbook-sized) building blocks.
  XoshiroRng rng(22);
  for (int i = 0; i < 10; ++i) {
    BigInt a = random_bits(2000 + i * 173, rng);
    BigInt b = random_bits(1800 + i * 211, rng);
    BigInt c = random_bits(900, rng);
    // Distributivity ties the big product to smaller (schoolbook) products.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    // Division inverts multiplication exactly.
    if (!b.is_zero()) {
      EXPECT_EQ((a * b) / b, a);
      EXPECT_EQ((a * b) % b, BigInt{});
    }
  }
}

TEST(BigInt, KaratsubaHugeSquare) {
  // (2^n - 1)^2 = 2^(2n) - 2^(n+1) + 1 — exact closed form at any size.
  for (std::size_t n : {1600u, 4096u, 10000u}) {
    BigInt x = (BigInt(1) << n) - BigInt(1);
    BigInt expected = (BigInt(1) << (2 * n)) - (BigInt(1) << (n + 1)) +
                      BigInt(1);
    EXPECT_EQ(x * x, expected) << n;
  }
}

TEST(BigInt, KaratsubaUnbalancedOperands) {
  XoshiroRng rng(23);
  BigInt big = random_bits(8000, rng);
  BigInt small = random_bits(100, rng);
  // One side below the threshold: must still be exact.
  EXPECT_EQ((big * small) / small, big);
  EXPECT_EQ(big * BigInt(1), big);
}

TEST(BigInt, LowLimbsSplitsCorrectly) {
  XoshiroRng rng(24);
  BigInt a = random_bits(1000, rng);
  for (std::size_t m : {1u, 5u, 15u, 16u, 100u}) {
    BigInt lo = a.low_limbs(m);
    BigInt hi = a >> (64 * m);
    EXPECT_EQ(lo + (hi << (64 * m)), a) << m;
  }
}

}  // namespace
}  // namespace dcpl::crypto
