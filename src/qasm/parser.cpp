#include "qasm/parser.hpp"

#include <cmath>
#include <numbers>

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "qasm/lexer.hpp"

namespace powermove::qasm {

namespace {

/**
 * Deepest expression nesting the parser accepts. Every level of nested
 * parentheses, function call, unary minus, or right-associative '^' is
 * one recursive descent; checking the depth before recursing turns a
 * hostile input (thousands of nested parentheses) into a ParseError
 * instead of a stack overflow. Real programs nest a handful of levels.
 */
constexpr std::size_t kMaxExprDepth = 256;

/**
 * Longest parameter expression, in tokens, the parser accepts. A
 * left-associative chain like `1 + 1 + ...` parses in a loop but nests
 * one tree level per operator, and evaluating or destroying the tree
 * recurses once per level; the tree's height is bounded by its token
 * count, so this bound keeps those recursions shallow too.
 */
constexpr std::size_t kMaxExprTokens = 4096;

/**
 * A Binary node over @p lhs and @p rhs, moved in: an initializer list
 * would deep-copy both subtrees, which is quadratic over a long
 * `a + b + c + ...` chain.
 */
Expr
binaryNode(char op, Expr lhs, Expr rhs)
{
    Expr node;
    node.kind = ExprKind::Binary;
    node.op = op;
    node.children.reserve(2);
    node.children.push_back(std::move(lhs));
    node.children.push_back(std::move(rhs));
    return node;
}

/** A Unary or Call node over @p child, moved in. */
Expr
unaryNode(ExprKind kind, Expr child, std::string name = {})
{
    Expr node;
    node.kind = kind;
    node.name = std::move(name);
    node.children.push_back(std::move(child));
    return node;
}

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    Program
    run()
    {
        Program program;
        parseHeader(program);
        while (!check(TokenKind::EndOfFile))
            program.statements.push_back(parseStatement(program));
        return program;
    }

  private:
    const Token &peek() const { return tokens_[pos_]; }

    const Token &
    advance()
    {
        const Token &token = tokens_[pos_];
        if (!check(TokenKind::EndOfFile))
            ++pos_;
        return token;
    }

    bool check(TokenKind kind) const { return peek().kind == kind; }

    bool
    match(TokenKind kind)
    {
        if (!check(kind))
            return false;
        advance();
        return true;
    }

    const Token &
    expect(TokenKind kind, const std::string &context)
    {
        if (!check(kind)) {
            throw ParseError("expected " + tokenKindName(kind) + " " +
                                 context + ", found " +
                                 tokenKindName(peek().kind),
                             peek().line, peek().column);
        }
        return advance();
    }

    [[noreturn]] void
    errorHere(const std::string &message) const
    {
        throw ParseError(message, peek().line, peek().column);
    }

    void
    parseHeader(Program &program)
    {
        // The OPENQASM header is conventionally required; accept programs
        // without it for robustness but record the version when present.
        if (match(TokenKind::KwOpenQasm)) {
            const Token &version = expect(TokenKind::Real, "after OPENQASM");
            program.version = version.text;
            expect(TokenKind::Semicolon, "after the OPENQASM header");
        }
        while (match(TokenKind::KwInclude)) {
            const Token &path = expect(TokenKind::String, "after include");
            expect(TokenKind::Semicolon, "after include");
            program.includes.push_back(path.text);
        }
    }

    Statement
    parseStatement(Program &program)
    {
        if (match(TokenKind::KwInclude)) {
            const Token &path = expect(TokenKind::String, "after include");
            expect(TokenKind::Semicolon, "after include");
            program.includes.push_back(path.text);
            return BarrierStmt{}; // no-op placeholder
        }
        if (check(TokenKind::KwQreg) || check(TokenKind::KwCreg))
            return parseRegDecl();
        if (check(TokenKind::KwGate))
            return parseGateDecl();
        if (check(TokenKind::KwMeasure))
            return parseMeasure();
        if (check(TokenKind::KwBarrier))
            return parseBarrier();
        if (check(TokenKind::KwReset))
            errorHere("'reset' is not supported: PowerMove compiles unitary "
                      "circuits");
        if (check(TokenKind::KwIf))
            errorHere("classically controlled gates ('if') are not supported");
        if (check(TokenKind::Identifier))
            return parseGateCall();
        errorHere("expected a statement, found " + tokenKindName(peek().kind));
    }

    Statement
    parseRegDecl()
    {
        RegDecl decl;
        decl.quantum = advance().kind == TokenKind::KwQreg;
        decl.name = expect(TokenKind::Identifier, "as register name").text;
        expect(TokenKind::LBracket, "in register declaration");
        const Token &size = expect(TokenKind::Integer, "as register size");
        expect(TokenKind::RBracket, "in register declaration");
        expect(TokenKind::Semicolon, "after register declaration");
        // Checked on the token's value before the cast (and long before
        // anything is sized by it): a register no machine can hold is a
        // parse error, not an allocation failure.
        if (size.number > static_cast<double>(MachineConfig::kMaxQubits))
            throw ParseError("register size " + size.text +
                                 " exceeds the machine ceiling of " +
                                 std::to_string(MachineConfig::kMaxQubits) +
                                 " qubits",
                             size.line, size.column);
        decl.size = static_cast<std::size_t>(size.number);
        if (decl.size == 0)
            throw ParseError("register size must be positive", size.line,
                             size.column);
        return decl;
    }

    Statement
    parseGateDecl()
    {
        advance(); // gate
        GateDecl decl;
        decl.name = expect(TokenKind::Identifier, "as gate name").text;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    decl.params.push_back(
                        expect(TokenKind::Identifier, "as gate parameter")
                            .text);
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        do {
            decl.qubits.push_back(
                expect(TokenKind::Identifier, "as gate qubit").text);
        } while (match(TokenKind::Comma));
        expect(TokenKind::LBrace, "to open the gate body");
        while (!match(TokenKind::RBrace)) {
            if (match(TokenKind::KwBarrier)) {
                GateCall barrier;
                barrier.name = "barrier";
                while (!check(TokenKind::Semicolon))
                    advance();
                expect(TokenKind::Semicolon, "after barrier");
                decl.body.push_back(std::move(barrier));
                continue;
            }
            decl.body.push_back(parseGateCallBody());
        }
        return decl;
    }

    /** A gate call inside a gate body (identifier args, no indices). */
    GateCall
    parseGateCallBody()
    {
        GateCall call;
        const Token &name = expect(TokenKind::Identifier, "as gate name");
        call.name = name.text;
        call.line = name.line;
        call.column = name.column;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    call.params.push_back(parseParam());
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate arguments");
        }
        do {
            const Token &arg =
                expect(TokenKind::Identifier, "as gate body argument");
            call.args.push_back(
                QuantumArg{arg.text, std::nullopt, arg.line, arg.column});
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        return call;
    }

    Statement
    parseGateCall()
    {
        GateCall call;
        const Token &name = advance();
        call.name = name.text;
        call.line = name.line;
        call.column = name.column;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    call.params.push_back(parseParam());
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        do {
            call.args.push_back(parseQuantumArg());
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        return call;
    }

    QuantumArg
    parseQuantumArg()
    {
        const Token &reg = expect(TokenKind::Identifier, "as register name");
        QuantumArg arg{reg.text, std::nullopt, reg.line, reg.column};
        if (match(TokenKind::LBracket)) {
            const Token &index = expect(TokenKind::Integer, "as qubit index");
            expect(TokenKind::RBracket, "after qubit index");
            arg.index = static_cast<std::size_t>(index.number);
        }
        return arg;
    }

    Statement
    parseMeasure()
    {
        advance(); // measure
        MeasureStmt stmt;
        stmt.source = parseQuantumArg();
        expect(TokenKind::Arrow, "in measure statement");
        const Token &target = expect(TokenKind::Identifier, "as creg name");
        stmt.target_reg = target.text;
        if (match(TokenKind::LBracket)) {
            expect(TokenKind::Integer, "as creg index");
            expect(TokenKind::RBracket, "after creg index");
        }
        expect(TokenKind::Semicolon, "after measure");
        return stmt;
    }

    Statement
    parseBarrier()
    {
        advance(); // barrier
        BarrierStmt stmt;
        do {
            stmt.args.push_back(parseQuantumArg());
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after barrier");
        return stmt;
    }

    // ---- expression grammar: additive > multiplicative > power > unary ----

    /** One open expression nesting level; see kMaxExprDepth. */
    class Nesting
    {
      public:
        explicit Nesting(std::size_t &depth) : depth_(depth) { ++depth_; }
        ~Nesting() { --depth_; }
        Nesting(const Nesting &) = delete;
        Nesting &operator=(const Nesting &) = delete;

      private:
        std::size_t &depth_;
    };

    /** Opens one more nesting level, or throws a ParseError here. */
    [[nodiscard]] Nesting
    nest()
    {
        if (expr_depth_ >= kMaxExprDepth)
            errorHere("expression nested deeper than " +
                      std::to_string(kMaxExprDepth) + " levels");
        return Nesting(expr_depth_);
    }

    /** One gate-call parameter: a full expression, bounded in length. */
    Expr
    parseParam()
    {
        expr_start_ = pos_;
        return parseExpr();
    }

    /** Throws once the current parameter exceeds kMaxExprTokens. */
    void
    checkExprLength() const
    {
        if (pos_ - expr_start_ > kMaxExprTokens)
            errorHere("expression longer than " +
                      std::to_string(kMaxExprTokens) + " tokens");
    }

    Expr
    parseExpr()
    {
        Expr left = parseTerm();
        while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
            checkExprLength();
            const char op = advance().kind == TokenKind::Plus ? '+' : '-';
            left = binaryNode(op, std::move(left), parseTerm());
        }
        return left;
    }

    Expr
    parseTerm()
    {
        Expr left = parsePower();
        while (check(TokenKind::Star) || check(TokenKind::Slash)) {
            checkExprLength();
            const char op = advance().kind == TokenKind::Star ? '*' : '/';
            left = binaryNode(op, std::move(left), parsePower());
        }
        return left;
    }

    Expr
    parsePower()
    {
        Expr base = parseUnary();
        if (check(TokenKind::Caret)) {
            advance();
            const Nesting level = nest();
            // Right associative.
            return binaryNode('^', std::move(base), parsePower());
        }
        return base;
    }

    Expr
    parseUnary()
    {
        if (match(TokenKind::Minus)) {
            const Nesting level = nest();
            return unaryNode(ExprKind::Unary, parseUnary());
        }
        return parsePrimary();
    }

    Expr
    parsePrimary()
    {
        Expr node;
        if (check(TokenKind::Real) || check(TokenKind::Integer)) {
            node.kind = ExprKind::Number;
            node.number = advance().number;
            return node;
        }
        if (match(TokenKind::KwPi)) {
            node.kind = ExprKind::Pi;
            return node;
        }
        if (check(TokenKind::Identifier)) {
            const Token &name = advance();
            if (match(TokenKind::LParen)) {
                const Nesting level = nest();
                node = unaryNode(ExprKind::Call, parseExpr(), name.text);
                expect(TokenKind::RParen, "after function argument");
                return node;
            }
            node.kind = ExprKind::Parameter;
            node.name = name.text;
            return node;
        }
        if (match(TokenKind::LParen)) {
            const Nesting level = nest();
            Expr inner = parseExpr();
            expect(TokenKind::RParen, "to close the expression");
            return inner;
        }
        errorHere("expected an expression, found " +
                  tokenKindName(peek().kind));
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    /** Open expression nesting levels (see kMaxExprDepth). */
    std::size_t expr_depth_ = 0;
    /** First token of the parameter being parsed (see kMaxExprTokens). */
    std::size_t expr_start_ = 0;
};

} // namespace

Program
parseProgram(std::string_view source)
{
    return Parser(tokenize(source)).run();
}

double
evaluateExpr(const Expr &expr,
             const std::vector<std::pair<std::string, double>> &bindings)
{
    switch (expr.kind) {
      case ExprKind::Number:
        return expr.number;
      case ExprKind::Pi:
        return std::numbers::pi;
      case ExprKind::Parameter:
        for (const auto &[name, value] : bindings) {
            if (name == expr.name)
                return value;
        }
        throw ParseError("unbound parameter '" + expr.name + "'", 0, 0);
      case ExprKind::Unary:
        return -evaluateExpr(expr.children[0], bindings);
      case ExprKind::Binary: {
        const double lhs = evaluateExpr(expr.children[0], bindings);
        const double rhs = evaluateExpr(expr.children[1], bindings);
        switch (expr.op) {
          case '+':
            return lhs + rhs;
          case '-':
            return lhs - rhs;
          case '*':
            return lhs * rhs;
          case '/':
            return lhs / rhs;
          case '^':
            return std::pow(lhs, rhs);
          default:
            panic("unknown binary operator");
        }
      }
      case ExprKind::Call: {
        const double arg = evaluateExpr(expr.children[0], bindings);
        if (expr.name == "sin")
            return std::sin(arg);
        if (expr.name == "cos")
            return std::cos(arg);
        if (expr.name == "tan")
            return std::tan(arg);
        if (expr.name == "exp")
            return std::exp(arg);
        if (expr.name == "ln")
            return std::log(arg);
        if (expr.name == "sqrt")
            return std::sqrt(arg);
        throw ParseError("unknown function '" + expr.name + "'", 0, 0);
      }
    }
    panic("unknown expression kind");
}

} // namespace powermove::qasm
