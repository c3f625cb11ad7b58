"""The CLI's byte contract: the synthetic year and planted trips run through
every command under ``TINY_CONFIG`` must keep the sha256 of each file it
writes, each stdout line and an empty stderr, at master seeds 21 and 23.

A change that means to move a figure records the new digests here, and says
which files moved and why."""

import hashlib

import pytest

from citytrails.cli import main
from test_cli import TINY_CONFIG

CHAIN = (["synth", "--kind", "all", "--days", "42", "--anomalies", "9"], ["ingest"],
         ["hotspots"], ["extract"], ["train", "--hotspot", "D"],
         ["classify", "--hotspot", "D"], ["compare", "--hotspot", "D"], ["plotdata"])

# sha256 of every file under --out once the chain has run, by master seed
DIGESTS = {
    21: {
        "accuracy.csv": "f110f1249307505eba397acdfe32083368853997dde4ad0ba85ca8748e63b9d0",
        "buckets.csv": "65fb073412bdecf05066169991b45850b4688e92d50b8eb3d2ac901d445f8231",
        "history/Asleep.csv": "1e83b571ca9acfcd3db8b1a23fb3df09e2a935468a75a01a39def3eb8d55ab5e",
        "history/Awakening.csv": "dc3bc64379a4261146795b68921ca0ef56a0de271ab6dcca9aa9f2ae47ad6eb5",
        "history/Chill.csv": "2babb7085af51eeddc9b61486b932f82a0aa00197517fd1f5d640ea7d28650eb",
        "history/Falling.csv": "537f175cfe4e005c772dab522f4b3df4c4f68b1e20fdb98e91db17f38ad9c470",
        "history/Flow.csv": "5b7605c6d3f8ae24ced61c3d8eb64ab6048f11186c168fd43a0e679d381ed7fa",
        "history/Rise.csv": "b15d7eb5ec5aee2a58e6b425695295990aa94584f162f4c30c762e3019edff04",
        "history/RushHour.csv": "04cb8cb10d358142bb3b462cfe9b3a9f391c767fc5d04b3f4e9064025b236088",
        "history/pattern.csv": "69afd06bec85ab9c5bdba451e78ea1d5196ed64dc5ea196e522b54343f6c7d71",
        "hotspots.geojson": "a0e473d2ae7e26c360f42d031b31944792606a4ca63a75bd66aeea29273c0954",
        "labels.csv": "491a00d1496c57712c1f34631dd159f43b910b68c23716cdcada20dede40159f",
        "masks/AfternoonEvening.asc": "f5c6d620f95676159b5f823366315e9263c5b903b51cdba2347f5df605ffe8af",
        "masks/EarlyMorning.asc": "812de1977df0b9bb2771253693d41546617fb58635a1f4f7572f78601699de1c",
        "masks/Morning.asc": "b7f5d3be4d2243cf12e897bd6b5463580e987464a04d3f40d9a7a32c633c5f39",
        "masks/Night.asc": "284d3cfd27f6aed6fd447030fc8fb60788de6003af4b77b712464fee06b0aea9",
        "matrix.csv": "484148fe7691c1cc21fbf630a6db93c74b35253004b77214c9cf6385095caef4",
        "pattern.ini": "9318f6f2bcf83360cf4294a04dbaabc616b3e85b67a3f920b800dfb44028de4d",
        "plotdata/matrix.csv": "484148fe7691c1cc21fbf630a6db93c74b35253004b77214c9cf6385095caef4",
        "plotdata/scatter.csv": "e2cb464663039b74822b67e1e76b52c9435cd166ef92d85f0343e131741b5477",
        "plotdata/trail_snapshots.csv": "8c9a2e78dd4cff8f5cd1ea9cdac2d8827b17cfa93d9631ff97498acd890d5e01",
        "rejections.csv": "8a9966d093fc6aa85ea2efaad19e66c4601fdfb2de0528db0b75cd6a82f1ea2a",
        "report.csv": "c2f0b54ea77086b46caabd636a0206259fb17386777692ae92980d0ad8475d7b",
        "series/A/2015-02-02.csv": "eae63287bb0c5bdaa71a19b324cbb5f4295cded992ca8d9e4727ecc6f314400b",
        "series/A/2015-02-03.csv": "12e66e5b8b113b1f3c6f9578c29e75e85a0b5b4ac1866c4378c86dd4b15c94f5",
        "series/B/2015-02-02.csv": "2edde53ec96d22c8c7d850a20ffafb39376cd819c249acd0ea07b08428a7c890",
        "series/B/2015-02-03.csv": "320b1c9e83445b9e3d157c2bbd602f831fa1c29b526f4ba050f83ccebd8f2c70",
        "series/C/2015-02-02.csv": "2a7d7e706e40338b8a371077932fd87398ce944b64d7e3569a28b779624704ed",
        "series/C/2015-02-03.csv": "c3bda0e0776631c79730ba1b85736d1ee0f84c5f2a3a46feb5b3e90ccbdfe2b0",
        "series/D/2015-01-05.csv": "d61a6daeb70afde99a9e535309ae80ec131d62ab106a035ea1f52b65862d83a4",
        "series/D/2015-01-06.csv": "e06d2edf8527251b9148869a0efd3559999cfeb6d9ab56d0090196c83f39d5e0",
        "series/D/2015-01-07.csv": "5f706d5ef9e561ce4577f0942bf8f64d3580c5622941ea008b40abd65beb2007",
        "series/D/2015-01-08.csv": "a1c7fc3dc3f8ed0c026f8ceab66e1fe05b406fb457d436a5eb1c6b3646196210",
        "series/D/2015-01-09.csv": "ab178151af1721da15459dbeb6fe775c7e0d45ce6dde198eaadd72344238de84",
        "series/D/2015-01-10.csv": "6fb1b888c68d148ea22bbc32d8164790c897148ffe8570acc6f533bc40cc9f07",
        "series/D/2015-01-11.csv": "7e4946c198a8e9ebca8c06f46399c78e2266ff6e7e6b9f39418cb5b7dc9b433d",
        "series/D/2015-01-12.csv": "99367bacdaaf79140cc5071083cf6b2dd1576640acc5d191fca90a164dba0164",
        "series/D/2015-01-13.csv": "7eb148c9058623e46a7a843792a8aaa303ddd66a2264d898b627c7bb4680c581",
        "series/D/2015-01-14.csv": "c010296bcd75ad220395abc8cdad19c52802d98ddbfab24d67d03b6fd06ecad9",
        "series/D/2015-01-15.csv": "aba0a568ef9dfe5730d88a86bbf688cf17e5f0aea8f8555e05818d9eb8bc1869",
        "series/D/2015-01-16.csv": "0951938d917f0ceebdfd41e457724ba1b279022bb023ca1d66b964fc1aaa38a2",
        "series/D/2015-01-17.csv": "b650e13d3a4308ba16dbeeb2e85fd560c0af47540145b6aa44a1457819760a03",
        "series/D/2015-01-18.csv": "aa67a3267fb53043b1811e753931fd47caf8f42672f0cddffdc49deae7b73393",
        "series/D/2015-01-19.csv": "498074eff448ef2c2760c32cf8e2bbbdcdae49358e91e5b24ee01eff6aedf888",
        "series/D/2015-01-20.csv": "22859b247c5d90e3444fc0f70baa9ca38ae4ac3dc69bc1e28ada9e5cc683e32b",
        "series/D/2015-01-21.csv": "edacd50c6c1552a29cac06f2a8b90bf4c149bf1de9e2fef501e7f472d9f24dc0",
        "series/D/2015-01-22.csv": "c6d7e1b213d1451143f0b68b99030cd3731e3b6970c129dcdaf0d8ff5bf43556",
        "series/D/2015-01-23.csv": "27fde5c1c684790be423154144abf350d5e9c88169f71e747f1796377f9cc7a8",
        "series/D/2015-01-24.csv": "7b8c4c09944c2e9726021b998a9ea7381f02db6acd0821886227777d8c44cbd2",
        "series/D/2015-01-25.csv": "ad6ec4754763a85110104f6dc8996d7ba9a94d4fcc27ace6ea198b6df3a2ffc8",
        "series/D/2015-01-26.csv": "c37d395f4e03b014b2cb9493f27622f4163fefa6c08cdb5e74bf4120f8588092",
        "series/D/2015-01-27.csv": "86f2da64705b8564f51eeb982a6d3194e5f9ca2e06db11574f673b44a1be70a6",
        "series/D/2015-01-28.csv": "13cf42ff1cbd32e97e8a739ca5bc3b97ab63b603deb7afdd7d93fd72b4d04aef",
        "series/D/2015-01-29.csv": "0bebbc4bb2b2e7c667560e1b4e5495847d5e4a2a98ac7e8799bac94349d814e7",
        "series/D/2015-01-30.csv": "89f410187266ad3b2c52a26979177cac81e0ab0c51dfd7e36ede15e84c871651",
        "series/D/2015-01-31.csv": "11cd9ca52194809eba495716480681a57fec00a80637666722136349fc2eec37",
        "series/D/2015-02-01.csv": "4a68fbdfef249ae70cd4e8da9611180b675a8e6e9bb7337a9c830e264f64c473",
        "series/D/2015-02-02.csv": "a1035f4f52593dac05eab5668d662e07e49e5784df6c375ddd2da286de81d232",
        "series/D/2015-02-03.csv": "146f34599a1927fe48e5adcf6a02033e11e8fb02f5199b9089b07895eba3d386",
        "series/D/2015-02-04.csv": "2921559bbc68ef8ffbf08398bd05b9d54e511efed533e65b0491649e8be32e16",
        "series/D/2015-02-05.csv": "38e2c06214786aa5e04224d04bab1dd9bb979b81c04bba743a962775a69932e0",
        "series/D/2015-02-06.csv": "e379773a02380d24f1de6aa5af01de74468107e00d4ee65f7516f87125198169",
        "series/D/2015-02-07.csv": "db228541f10cc9965198b88b5285fa5f4ca251fe7050d31d4177331d8fd8c0e0",
        "series/D/2015-02-08.csv": "893d97b63b9898b5fb17cb0e4e6d03938d9457c5981a24b9e9af27f449633ea2",
        "series/D/2015-02-09.csv": "2725ecaaeb3b9e29afa8136a1b54a2cac584cf1f63a72e394186659005d5d02c",
        "series/D/2015-02-10.csv": "c81ee1100f304c16e157d3647b94734793319ec8bf6d5befe567aa47afdd7fd0",
        "series/D/2015-02-11.csv": "957dc7e61fb869b3df5e071dd7dff6ae77de132f760dbb8693fc6ae723cef824",
        "series/D/2015-02-12.csv": "0de76b0062cc9d5d5dd959259aadd9ac8eadef01267e6cc9ea0d9bbdd301d0e1",
        "series/D/2015-02-13.csv": "c06ddbc8147813004e93fd17b41794b793f1b7e6535ab63b2feb406359d35132",
        "series/D/2015-02-14.csv": "6b2efab0b2b5d0ed783833489b5c41034da55b7d81561b228527aa7a2f251c0b",
        "series/D/2015-02-15.csv": "6a9a810599697e30fbb498ea513c0f56eb7da763c8d7a3370be1d70ef9081380",
        "sp.ini": "fd22c51522fbd78fc736126b5716deaeaf198ba110134014de61004d461d5920",
        "trails/AfternoonEvening.asc": "0b8ecdf0d4f3da441d4ba0fd5e9d5f805e12d0b233696dcb166403e9d21203cf",
        "trails/EarlyMorning.asc": "fdcf913a5e58dc0c467dd48585c0300f2313bfbaf4236f21318416b457219396",
        "trails/Morning.asc": "5ae9670db7bc1fac9675487b414f2cf4403f377e93d32d597727f1a99f278859",
        "trails/Night.asc": "4a43145fbcc5523751b9aba75251d87c2d06fc1cba5f655f04f87458cd88a4b8",
        "trips.csv": "ef3cf486f2a75e436a5b45a2628773bd2d9be702da47777d100c2bee988c64fc",
    },
    23: {
        "accuracy.csv": "9a696195b406b50a5d0b5e83bcd5421daebbe5b20390619b3f404d85301086a3",
        "buckets.csv": "d88d0a6c4ed06b762d9f0b7e8b0a6e5e4af760e5ffe49bd7abd94e311a6ec86f",
        "history/Asleep.csv": "6d9f825149b11089d42a2f971d2b7f8ceb72ef53a48b705b704f4854fa9d4f88",
        "history/Awakening.csv": "328418034feac9f7d6ed577eba6e8337b8ac8fdf0916ccead260bdcd084aff17",
        "history/Chill.csv": "5c169bc69cb2ada838a811e02b2f988be7073d7b1a9948bc0ac7f756e28c3cb2",
        "history/Falling.csv": "59d19629406ddde013d14cad70c23a0706c84a427492b377e3ce29c101114d49",
        "history/Flow.csv": "4633808724114697cb2370b449d5369c9ef50cf43f0c32d6fcde1a022faec373",
        "history/Rise.csv": "2785d57f6cce049a804fca77ef1f616eb46e5dfd6070580802f04b9bb0dd215d",
        "history/RushHour.csv": "b5c7a14a6d68874c8f3fd21eb47981b4af83ff99d530fb9b4929076871ceda8f",
        "history/pattern.csv": "0365e4869d8335de94487fb3616cb1e375bba885f6f1441aaa51d2521f9f4160",
        "hotspots.geojson": "06ca50430084b77194fc0cae5924b6d7379aefc44c83529cad6db6d5a93a2bf6",
        "labels.csv": "4689f9eec8a88020286da77963a159a42e21249f3bd3c01ccf243bde870814f8",
        "masks/AfternoonEvening.asc": "dc0a164091052a0cabede881c89b292db86bfded2c1c51bdd6fd6a6b11aadb08",
        "masks/EarlyMorning.asc": "83a4cfecefc5c6bc091376ed7b81db1c216aeff58c71a9574fac6507f2c0d676",
        "masks/Morning.asc": "b4516fbbd494a28be47575bfa029af35ea3ae58565aa508e51e0251d0c066297",
        "masks/Night.asc": "01cabc7ea8cecd7188796c5c302ac39b3a7d8eaee84a847b68d1449218be162a",
        "matrix.csv": "dfaf11cbbca29cdb0c038fb485956ad2a309e6c2041f39b9b155954470432a07",
        "pattern.ini": "749aeb444ee6025e2761ac705c20f5017816bb8330136773283bd769e84ae6da",
        "plotdata/matrix.csv": "dfaf11cbbca29cdb0c038fb485956ad2a309e6c2041f39b9b155954470432a07",
        "plotdata/scatter.csv": "5b5dda80be5d71a85d830a96a59666aef30f5d568976d50892551463ad893737",
        "plotdata/trail_snapshots.csv": "5a1a8e436d6198a96f6888c6c5ee3f5ddb5a65133970867acca3d3571d7a4b54",
        "rejections.csv": "2ae69f252abc5d23456a7192f3bffc226cfd33c1af369bfb0d4a9c6f4a6470c8",
        "report.csv": "e44e2289fa4e4f3a22a3d835ac92b224e20df52ace8890c040b92198a8f8f1a7",
        "series/A/2015-02-02.csv": "640903c3900a0b866ed7a5e5f4bf9898e1beb07bb8ddffa81dd2844613cb72d6",
        "series/A/2015-02-03.csv": "13134bba1b7ad620901a36c7aa2a1791e8564165e7e32fe8e869e3b5f2b8c6ab",
        "series/B/2015-02-02.csv": "93b33c7c58fcec0b8b79901c818adb6419bc6ecf3a77a29eed8488bc3846dee6",
        "series/B/2015-02-03.csv": "561a14aad3b10ef3b80b3903c89fcd28b4f0ed8b1287703b5de4a8148d582e1d",
        "series/C/2015-02-02.csv": "e5613c326e87efac23892cc5a89dbcd763156471be5cb8b8f9782da9dc95288b",
        "series/C/2015-02-03.csv": "06593a953bd6b72041eb4c25ff51c6d49a0d93ff962c6238420ce8c30afe571a",
        "series/D/2015-01-05.csv": "fb8fa16faaed6131ddb46133d41c17d601e52afa7a5f14782876b0dad76ab12f",
        "series/D/2015-01-06.csv": "0f72689b1bc76158184aaedd29c54b7baf75f43b471173cf918ae1537050bfdb",
        "series/D/2015-01-07.csv": "a78d16ad6b7c31d4ef8994b0b1f9bf4c62aaef00ba549bbdab58ca571edcb04c",
        "series/D/2015-01-08.csv": "a9f6289b0a34ecc1682c097c71293495ff99637c5ea6ff346a3886d28de358f2",
        "series/D/2015-01-09.csv": "594563cf04f33054e902e3fedaf2759925553964a40ebdd6ef036e5c5cc4a164",
        "series/D/2015-01-10.csv": "930a58606febafff5f45f5ab03014a1830e78f2de3bf0ee75807ed64b65b390f",
        "series/D/2015-01-11.csv": "42254b30ac7ea78d9cb5ec9e9479b7d2382e4cd8a619cc0b81aba0ecf670af15",
        "series/D/2015-01-12.csv": "3dfceda55f788943b8c3d1465f822c2fb93d453c4ba3f2684116ddb907456389",
        "series/D/2015-01-13.csv": "6031cd502ea4273fb4a0305000c84c015d9709fe22ba700d7f7d369d1774412d",
        "series/D/2015-01-14.csv": "173ab7a03232e7a86d67e5838cf128a7a26c39b39c19d4c53711da9142e655a8",
        "series/D/2015-01-15.csv": "fbd75d25232f7f770297222a9338d7040f2403ae5659b45eecea4dbab3e101fc",
        "series/D/2015-01-16.csv": "dba6a6e9470ceed6148942c285f28b381c4f0235649cc8d25c785526d513ccbf",
        "series/D/2015-01-17.csv": "c44ad96b6c95a76afd751508f9bf2a7b5ef33d28d22138f51aef847e39b8c408",
        "series/D/2015-01-18.csv": "72941551346891f9fde46eea8bcc92c76b0bde2a829caa8b4ab0a0cf07e4d172",
        "series/D/2015-01-19.csv": "e15e38b0bda27903a497317150e327400d9568c03a798f40d0ee139565dcf1a6",
        "series/D/2015-01-20.csv": "dfdf1f8c9d7b7eebe58ed35849670e50c80d583e88d6c9932f467936afc31cb3",
        "series/D/2015-01-21.csv": "9a42994ad6088a39fe9e2c8698e22b5a939b331576b8e3e8dafc425a8cd60943",
        "series/D/2015-01-22.csv": "88965fc7e3c4b535f8ecc47c43b5f729a5a04ed7fe3edfe321ef5fdbfa6de3c4",
        "series/D/2015-01-23.csv": "e4d5bb38be83f771e3f274b69884de72390713b32118e62ea256b4310f504b5f",
        "series/D/2015-01-24.csv": "ca3452b2844c16dee1ab38435bb5a0c78756ae51100d010206036e9488da500a",
        "series/D/2015-01-25.csv": "1771b9e9675cdbe9bdae432b13fa6da489dc32810d0ad198425d68b903ef3f19",
        "series/D/2015-01-26.csv": "fa1b4e5a345649c39eda07576995d80f3b82d28454015e9088845f7200b3417f",
        "series/D/2015-01-27.csv": "1ecb21494c553b2a8bbd77d351360fb382b3b43d761c922bda7f958b37d92c28",
        "series/D/2015-01-28.csv": "896eafc70e37d736f8a8babc07d9af6d6ecb345e6b5bb91f0812d5f3f4f11bb9",
        "series/D/2015-01-29.csv": "a5fe24c4f57b0b1095331a99aadb44d091ffffb107e4bbcd8bb25f27dd9fcf1c",
        "series/D/2015-01-30.csv": "bb8527f2dee349b41329547bde3f2c14f8f792667e0a34207fda6d7d5d637445",
        "series/D/2015-01-31.csv": "ef14d770fac74ae3e54fb7fed68b6e54a0a025d8df091f77dbae6cd2096c2050",
        "series/D/2015-02-01.csv": "b960c635baf06619c923514c00f8c8f9b7c41af96e7ebbad84f255da06edbf1c",
        "series/D/2015-02-02.csv": "e0fd53f6a6833429b33927dfb7a548c67871580e17dfb9235a5f5a7fdb762b19",
        "series/D/2015-02-03.csv": "6d21d82f9a0b4759202b45cd57f53456a223578ef00015ac4a364d2519dfddcf",
        "series/D/2015-02-04.csv": "60b4971d0275936e0e8e12814007b10eda110f1f70069ba5c32b86f6614a37da",
        "series/D/2015-02-05.csv": "776db017696f600f3bab0fba6b9b9c72032bc8cc2ea0c1aa893b560aac357cef",
        "series/D/2015-02-06.csv": "5e5d8c9536a003696085f7e5eb75cbe16286dcffa3c2c328f1b703c99b6c83c1",
        "series/D/2015-02-07.csv": "ff66af8b6143b4a94c62792bf83095d7bda01c9d416769dc33c1493bbeadc7d4",
        "series/D/2015-02-08.csv": "16040343a47bc3f0821dfa5b5ad30306b9fc6a85135d2c6dfe442b29957bb087",
        "series/D/2015-02-09.csv": "4c39d82acd83ef5fc741fed927f3c13dec995fa4ef0b948ed5ed384cd818ae13",
        "series/D/2015-02-10.csv": "a94a1cee3459c55cdef8a4e29191e36c33897f8fcd6b7950b9661e8e0e77b2f5",
        "series/D/2015-02-11.csv": "cc5a5fd1159e1f0679ef5482c02ff00d3bb63f1e47ec30740974a817ef256d33",
        "series/D/2015-02-12.csv": "3c509ea60981a961da1f93a441a1c4edb0ca576655a6c9d11d3e6dba7225b805",
        "series/D/2015-02-13.csv": "6ca14298d482118e7afaf36645aa8f87983f0e86d23e538e4a67a074fab465c4",
        "series/D/2015-02-14.csv": "68f6818131bdadc832906a0270856e9993c7c16e79136156c662c7136973aee6",
        "series/D/2015-02-15.csv": "530f58ec3d83f46613d3e8e14134559478bb9d4295379dce804ace62fa630880",
        "sp.ini": "fa155a831e123a38fef6fbe3e26913c64a71153eccecc3253f10f890db4ccbb3",
        "trails/AfternoonEvening.asc": "7aef9a82942bcead0cf81d4392dd7fd00592154447dc64fb7b92f4c6d8ad243d",
        "trails/EarlyMorning.asc": "1893ef550f1b00c50c7fff91307814d8787ffb933cf7611c8366994b51c92fb8",
        "trails/Morning.asc": "ff2c44988adb939512e0b75901def6c35d4a6a5608f1b91c4686b44fd362edd7",
        "trails/Night.asc": "026c1fa4d0cb0e87f3653dc797e871f0b0217c4acb4cb30e947fac0b84cbf0e1",
        "trips.csv": "37b30fe916b28eca80b7ea1783763548f2e7b9204ff3a5edbe709f5c7bb7888c",
    },
}

# the chain's stdout lines, with the --out directory written as {out}
STDOUT = {
    21: [
        "synth: wrote 42 days (9 anomalous) under {out}/series",
        "synth: wrote {out}/trips.csv",
        "ingest: 2000 accepted, 100 rejected, archive {out}/buckets.csv",
        "hotspots: 3 polygon(s) -> {out}/hotspots.geojson",
        "extract: 6 series under {out}/series",
        "train: perceptron saved to {out}/sp.ini (evaporation interval [0.3857, 0.7279])",
        "train: pattern field saved to {out}/pattern.ini",
        "classify: accuracy 0.9048, correlation 0.6358 -> {out}/report.csv",
        "compare: SRF 0.9048, DTW 0.9286, Frechet 0.9524",
        "plotdata: bundles under {out}/plotdata",
    ],
    23: [
        "synth: wrote 42 days (9 anomalous) under {out}/series",
        "synth: wrote {out}/trips.csv",
        "ingest: 2000 accepted, 100 rejected, archive {out}/buckets.csv",
        "hotspots: 3 polygon(s) -> {out}/hotspots.geojson",
        "extract: 6 series under {out}/series",
        "train: perceptron saved to {out}/sp.ini (evaporation interval [0.3857, 0.7279])",
        "train: pattern field saved to {out}/pattern.ini",
        "classify: accuracy 0.9762, correlation 0.8401 -> {out}/report.csv",
        "compare: SRF 0.9762, DTW 0.9048, Frechet 0.8333",
        "compare: DTW class Leisure has 2 representatives, fewer than [training] representatives = 3",
        "plotdata: bundles under {out}/plotdata",
    ],
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_chain_keeps_every_byte(tmp_path, capsys, seed):
    out = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
    capsys.readouterr()
    for args in CHAIN:
        assert main(["--config", str(config), "--seed", str(seed), *args]) == 0, args
    captured = capsys.readouterr()
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.rglob("*") if path.is_file()}
    expected = DIGESTS[seed]
    # every file that differs, is missing or is new, not just the first
    assert sorted(name for name in expected.keys() | digests.keys()
                  if digests.get(name) != expected.get(name)) == []
    assert captured.out.replace(str(out), "{out}").splitlines() == STDOUT[seed]
    assert captured.err == ""
