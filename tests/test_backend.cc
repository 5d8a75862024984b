/**
 * @file
 * Backend tests: OpenQASM round-trips through the importer with the
 * same unitary; Quil and UMD assembly contain the expected directives;
 * out-of-set gates are rejected; the emitted bytes are pinned across
 * the study grid and do not depend on the global C++ locale.
 */

#include <gtest/gtest.h>

#include <locale>

#include "common/logging.hh"

#include "core/backend.hh"
#include "core/compiler.hh"
#include "core/fingerprint.hh"
#include "core/unitary.hh"
#include "device/machines.hh"
#include "lang/qasm_parser.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

TEST(Backend, QasmRoundTripPreservesUnitary)
{
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(0);
    for (const char *bench : {"BV4", "Toffoli", "Peres"}) {
        CompileOptions opts;
        CompileResult res =
            compileForDevice(makeBenchmark(bench), dev, calib, opts);
        std::string qasm = toOpenQasm(res.hwCircuit);
        Circuit back = parseOpenQasm(qasm);
        EXPECT_EQ(back.numQubits(), res.hwCircuit.numQubits());
        EXPECT_TRUE(sameUnitary(back, res.hwCircuit)) << bench;
        EXPECT_EQ(back.measuredQubits(),
                  res.hwCircuit.measuredQubits());
    }
}

TEST(Backend, QasmHeaderAndRegisters)
{
    Circuit c(3, "demo");
    c.add(Gate::u2(0, 0.0, kPi));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(1));
    std::string qasm = toOpenQasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[1] -> c[1];"), std::string::npos);
}

TEST(Backend, QasmRejectsRigettiGates)
{
    Circuit c(2);
    c.add(Gate::cz(0, 1));
    EXPECT_THROW(toOpenQasm(c), FatalError);
}

TEST(Backend, QuilFormat)
{
    Circuit c(2, "q");
    c.add(Gate::rz(0, kPi / 2));
    c.add(Gate::rx(0, kPi / 2));
    c.add(Gate::cz(0, 1));
    c.add(Gate::measure(0));
    std::string quil = toQuil(c);
    EXPECT_NE(quil.find("DECLARE ro BIT[2]"), std::string::npos);
    EXPECT_NE(quil.find("RZ(1.5707963"), std::string::npos);
    EXPECT_NE(quil.find("RX(1.5707963"), std::string::npos);
    EXPECT_NE(quil.find("CZ 0 1"), std::string::npos);
    EXPECT_NE(quil.find("MEASURE 0 ro[0]"), std::string::npos);
}

TEST(Backend, QuilRejectsIbmGates)
{
    Circuit c(2);
    c.add(Gate::u2(0, 0, 0));
    EXPECT_THROW(toQuil(c), FatalError);
}

TEST(Backend, UmdAsmFormat)
{
    Circuit c(2, "ti");
    c.add(Gate::rxy(0, kPi / 2, 0.3));
    c.add(Gate::xx(0, 1, kPi / 4));
    c.add(Gate::rz(1, -kPi / 2));
    c.add(Gate::measure(1));
    std::string asm_text = toUmdAsm(c);
    EXPECT_NE(asm_text.find("ions 2"), std::string::npos);
    EXPECT_NE(asm_text.find("rxy 0"), std::string::npos);
    EXPECT_NE(asm_text.find("ms 0 1"), std::string::npos);
    EXPECT_NE(asm_text.find("detect 1"), std::string::npos);
}

TEST(Backend, DispatchByVendor)
{
    Circuit ibm(1);
    ibm.add(Gate::u1(0, 0.5));
    EXPECT_NE(emitAssembly(ibm, Vendor::IBM).find("OPENQASM"),
              std::string::npos);
    Circuit rig(1);
    rig.add(Gate::rz(0, 0.5));
    EXPECT_NE(emitAssembly(rig, Vendor::Rigetti).find("DECLARE"),
              std::string::npos);
    Circuit umd(1);
    umd.add(Gate::rz(0, 0.5));
    EXPECT_NE(emitAssembly(umd, Vendor::UMD).find("ions"),
              std::string::npos);
}

TEST(Backend, FullPipelineAssemblyParsesBack)
{
    // The compiler's emitted OpenQASM must parse back losslessly for
    // every study benchmark that fits IBMQ14.
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(1);
    for (const std::string &name : benchmarkNames()) {
        CompileOptions opts;
        CompileResult res =
            compileForDevice(makeBenchmark(name), dev, calib, opts);
        Circuit back = parseOpenQasm(res.assembly);
        EXPECT_EQ(back.count2q(), res.stats.twoQ) << name;
    }
}

TEST(Backend, StudyGridAssemblyBytesArePinned)
{
    // FNV-1a over the assembly of every (study benchmark, study
    // device, level) cell that fits, on day 0. The value was recorded
    // with the iostream/snprintf("%.17g") emitter this one replaced
    // (x86-64, GCC 12, glibc); any change to an emitted byte moves it.
    Fnv1a h;
    int cells = 0;
    for (const Device &dev : allStudyDevices()) {
        Calibration calib = dev.calibrate(0);
        for (const std::string &name : benchmarkNames()) {
            Circuit prog = makeBenchmark(name);
            if (prog.numQubits() > dev.numQubits())
                continue;
            for (OptLevel level : {OptLevel::N, OptLevel::OneQOpt,
                                   OptLevel::OneQOptC,
                                   OptLevel::OneQOptCN}) {
                CompileOptions opts;
                opts.level = level;
                CompileResult res = compileForDevice(prog, dev, calib, opts);
                h.str(res.assembly);
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 300);
    EXPECT_EQ(h.value(), 0x2c89ef0f7a60c4aeull) << std::hex << h.value();
}

/** Digit grouping "1'2" for every integer an ostream writes. */
struct GroupingPunct : std::numpunct<char>
{
    std::string do_grouping() const override { return "\1"; }
    char do_thousands_sep() const override { return '\''; }
};

TEST(Backend, EmissionIgnoresGlobalLocale)
{
    // An application that installs a grouping locale must still get
    // valid assembly: "q[12]", never "q[1'2]".
    std::locale saved =
        std::locale::global(std::locale(std::locale(), new GroupingPunct));
    Circuit ibm(14);
    ibm.add(Gate::cnot(12, 13));
    Circuit rig(14);
    rig.add(Gate::cz(12, 13));
    rig.add(Gate::rz(12, 1234.5));
    Circuit umd(14);
    umd.add(Gate::xx(12, 13, 1234.5));
    std::string qasm = toOpenQasm(ibm);
    std::string quil = toQuil(rig);
    std::string umd_asm = toUmdAsm(umd);
    std::locale::global(saved);

    EXPECT_NE(qasm.find("cx q[12],q[13];\n"), std::string::npos) << qasm;
    EXPECT_NE(qasm.find("qreg q[14];\ncreg c[14];\n"), std::string::npos)
        << qasm;
    EXPECT_NE(quil.find("DECLARE ro BIT[14]\n"), std::string::npos) << quil;
    EXPECT_NE(quil.find("CZ 12 13\n"), std::string::npos) << quil;
    EXPECT_NE(quil.find("RZ(1234.5) 12\n"), std::string::npos) << quil;
    EXPECT_NE(umd_asm.find("ions 14\n"), std::string::npos) << umd_asm;
    EXPECT_NE(umd_asm.find("ms 12 13 1234.5\n"), std::string::npos)
        << umd_asm;
}

} // namespace
} // namespace triq
