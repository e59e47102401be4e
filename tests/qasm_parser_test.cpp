/** @file Tests for the OpenQASM parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <numbers>
#include <string>

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace powermove::qasm {
namespace {

/** A checked-in regression input from tests/corpus/. */
std::string
readCorpus(const std::string &name)
{
    const std::string path =
        std::string(POWERMOVE_SOURCE_DIR) + "/tests/corpus/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The ParseError @p source raises; fails the test if it parses. */
ParseError
parseErrorOf(const std::string &source)
{
    try {
        (void)parseProgram(source);
    } catch (const ParseError &error) {
        return error;
    }
    ADD_FAILURE() << "expected a ParseError";
    return ParseError("parsed", 0, 0);
}

TEST(ParserTest, HeaderAndIncludes)
{
    const auto program = parseProgram(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n");
    EXPECT_EQ(program.version, "2.0");
    ASSERT_EQ(program.includes.size(), 1u);
    EXPECT_EQ(program.includes[0], "qelib1.inc");
    ASSERT_EQ(program.statements.size(), 1u);
    const auto &reg = std::get<RegDecl>(program.statements[0]);
    EXPECT_EQ(reg.name, "q");
    EXPECT_EQ(reg.size, 3u);
    EXPECT_TRUE(reg.quantum);
}

TEST(ParserTest, HeaderIsOptional)
{
    const auto program = parseProgram("qreg q[1];\nh q[0];\n");
    EXPECT_EQ(program.statements.size(), 2u);
}

TEST(ParserTest, CregDeclaration)
{
    const auto program = parseProgram("qreg q[2]; creg c[2];");
    const auto &creg = std::get<RegDecl>(program.statements[1]);
    EXPECT_FALSE(creg.quantum);
    EXPECT_EQ(creg.name, "c");
}

TEST(ParserTest, GateCallWithIndexedArgs)
{
    const auto program = parseProgram("qreg q[4]; cz q[0],q[3];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_EQ(call.name, "cz");
    ASSERT_EQ(call.args.size(), 2u);
    EXPECT_EQ(call.args[0].reg, "q");
    EXPECT_EQ(*call.args[0].index, 0u);
    EXPECT_EQ(*call.args[1].index, 3u);
}

TEST(ParserTest, GateCallWithBroadcastArg)
{
    const auto program = parseProgram("qreg q[4]; h q;");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_FALSE(call.args[0].index.has_value());
}

TEST(ParserTest, ParameterExpressions)
{
    const auto program =
        parseProgram("qreg q[1]; rz(pi/4) q[0]; rx(-2*pi) q[0]; "
                     "ry(sin(pi/2)+3^2) q[0];");
    const auto &rz = std::get<GateCall>(program.statements[1]);
    EXPECT_NEAR(evaluateExpr(rz.params[0], {}), std::numbers::pi / 4, 1e-12);
    const auto &rx = std::get<GateCall>(program.statements[2]);
    EXPECT_NEAR(evaluateExpr(rx.params[0], {}), -2 * std::numbers::pi, 1e-12);
    const auto &ry = std::get<GateCall>(program.statements[3]);
    EXPECT_NEAR(evaluateExpr(ry.params[0], {}), 1.0 + 9.0, 1e-12);
}

TEST(ParserTest, PowerIsRightAssociative)
{
    const auto program = parseProgram("qreg q[1]; rz(2^3^2) q[0];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {}), 512.0);
}

TEST(ParserTest, ParameterBindings)
{
    const auto program = parseProgram("qreg q[1]; rz(theta/2) q[0];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {{"theta", 3.0}}), 1.5);
    EXPECT_THROW(evaluateExpr(call.params[0], {}), ParseError);
}

TEST(ParserTest, GateDeclaration)
{
    const auto program = parseProgram(
        "qreg q[2];\n"
        "gate bell a,b { h a; cx a,b; }\n"
        "bell q[0],q[1];\n");
    const auto &decl = std::get<GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.name, "bell");
    EXPECT_TRUE(decl.params.empty());
    EXPECT_EQ(decl.qubits, (std::vector<std::string>{"a", "b"}));
    ASSERT_EQ(decl.body.size(), 2u);
    EXPECT_EQ(decl.body[0].name, "h");
    EXPECT_EQ(decl.body[1].name, "cx");
}

TEST(ParserTest, ParameterizedGateDeclaration)
{
    const auto program = parseProgram(
        "qreg q[1];\n"
        "gate phase(lambda) a { rz(lambda) a; }\n"
        "phase(pi) q[0];\n");
    const auto &decl = std::get<GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.params, (std::vector<std::string>{"lambda"}));
}

TEST(ParserTest, MeasureStatement)
{
    const auto program =
        parseProgram("qreg q[2]; creg c[2]; measure q[1] -> c[1];");
    const auto &measure = std::get<MeasureStmt>(program.statements[2]);
    EXPECT_EQ(measure.source.reg, "q");
    EXPECT_EQ(*measure.source.index, 1u);
    EXPECT_EQ(measure.target_reg, "c");
}

TEST(ParserTest, MeasureWholeRegister)
{
    const auto program =
        parseProgram("qreg q[2]; creg c[2]; measure q -> c;");
    const auto &measure = std::get<MeasureStmt>(program.statements[2]);
    EXPECT_FALSE(measure.source.index.has_value());
}

TEST(ParserTest, BarrierStatement)
{
    const auto program = parseProgram("qreg q[3]; barrier q[0],q[2];");
    const auto &barrier = std::get<BarrierStmt>(program.statements[1]);
    EXPECT_EQ(barrier.args.size(), 2u);
}

TEST(ParserTest, ResetRejectedWithClearMessage)
{
    try {
        parseProgram("qreg q[1]; reset q[0];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_NE(std::string(error.what()).find("reset"),
                  std::string::npos);
    }
}

TEST(ParserTest, IfRejected)
{
    EXPECT_THROW(parseProgram("qreg q[1]; creg c[1]; if (c==1) x q[0];"),
                 ParseError);
}

TEST(ParserTest, SyntaxErrorsCarryPositions)
{
    try {
        parseProgram("qreg q[2];\ncz q[0] q[1];"); // missing comma
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
    }
}

TEST(ParserTest, ZeroSizeRegisterRejected)
{
    EXPECT_THROW(parseProgram("qreg q[0];"), ParseError);
}

TEST(ParserTest, MissingSemicolonRejected)
{
    EXPECT_THROW(parseProgram("qreg q[2]"), ParseError);
    EXPECT_THROW(parseProgram("qreg q[2]; h q[0]"), ParseError);
}

TEST(ParserTest, DeepNestingIsAParseErrorNotACrash)
{
    // `rz(` + 5,000 nested parentheses on line 4: the recursive descent
    // used to overflow the stack on this input.
    const ParseError error = parseErrorOf(readCorpus("deep_parens.qasm"));
    EXPECT_EQ(error.line(), 4u);
    EXPECT_NE(std::string(error.what()).find("nested deeper than"),
              std::string::npos)
        << error.what();

    // The same bound covers unary-minus and right-associative '^' chains.
    const std::string minus = "qreg q[1];\nrz(" + std::string(5000, '-') +
                              "1) q[0];\n";
    EXPECT_EQ(parseErrorOf(minus).line(), 2u);
    std::string power = "qreg q[1];\nrz(1";
    for (int i = 0; i < 5000; ++i)
        power += "^1";
    power += ") q[0];\n";
    EXPECT_EQ(parseErrorOf(power).line(), 2u);

    // Nesting below the bound still parses and evaluates.
    const std::size_t depth = 200;
    const std::string nested = "qreg q[1]; rz(" + std::string(depth, '(') +
                               "-0.5" + std::string(depth, ')') + ") q[0];";
    const auto program = parseProgram(nested);
    const auto &call = std::get<GateCall>(program.statements[1]);
    ASSERT_EQ(call.params.size(), 1u);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {}), -0.5);
}

TEST(ParserTest, OverlongOperatorChainIsAParseError)
{
    // A left-associative chain parses in a loop but nests one tree level
    // per operator; 300,000 terms used to crash evaluation, and took
    // quadratic time to parse at 20,000.
    std::string chain = "qreg q[1];\nrz(1";
    for (int i = 0; i < 300000; ++i)
        chain += "+1";
    chain += ") q[0];\n";
    const ParseError error = parseErrorOf(chain);
    EXPECT_EQ(error.line(), 2u);
    EXPECT_NE(std::string(error.what()).find("longer than"),
              std::string::npos)
        << error.what();

    std::string sum = "qreg q[1]; rz(0";
    for (int i = 0; i < 1000; ++i)
        sum += "+0.001";
    sum += ") q[0];";
    const auto program = parseProgram(sum);
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_NEAR(evaluateExpr(call.params[0], {}), 1.0, 1e-9);
}

TEST(ParserTest, RegisterBeyondTheMachineCeilingIsRejected)
{
    // qreg q[2000000000] on line 3 used to reach the allocator.
    const ParseError error = parseErrorOf(readCorpus("huge_qreg.qasm"));
    EXPECT_EQ(error.line(), 3u);
    EXPECT_NE(std::string(error.what()).find("machine ceiling"),
              std::string::npos)
        << error.what();

    const std::string at_ceiling =
        "qreg q[" + std::to_string(MachineConfig::kMaxQubits) + "];";
    EXPECT_NO_THROW(parseProgram(at_ceiling));
    const std::string past_ceiling =
        "qreg q[" + std::to_string(MachineConfig::kMaxQubits + 1) + "];";
    EXPECT_THROW(parseProgram(past_ceiling), ParseError);
    EXPECT_THROW(parseProgram("qreg q[99999999999999999999999];"),
                 ParseError);
}

} // namespace
} // namespace powermove::qasm
