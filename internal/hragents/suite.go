// Package hragents implements the YourJourney case-study agents (§II, §VI):
// the Agentic Employer application driver, the Intent Classifier, NL2Q,
// SQLExecutor and Query Summarizer chain of Fig. 10, the Summarizer of
// Fig. 9, and the Profiler/JobMatcher/Presenter pipeline of Fig. 6, plus a
// content moderator, an applicant Ranker and a career Advisor. Every agent
// is an ordinary registry entry with a processor built from the suite's
// shared enterprise substrate — exactly how the paper maps existing
// enterprise models and APIs onto agents.
package hragents

import (
	"fmt"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/clock"
	"blueprint/internal/dataplan"
	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/registry"
	"blueprint/internal/relational"
	"blueprint/internal/workload"
)

// Agent names.
const (
	AgenticEmployer  = "AGENTIC_EMPLOYER"
	IntentClassifier = "INTENT_CLASSIFIER"
	NL2Q             = "NL2Q"
	SQLExecutor      = "SQLEXECUTOR"
	QuerySummarizer  = "QUERY_SUMMARIZER"
	Summarizer       = "SUMMARIZER"
	Profiler         = "PROFILER"
	JobMatcher       = "JOBMATCHER"
	Presenter        = "PRESENTER"
	Ranker           = "RANKER"
	Advisor          = "ADVISOR"
	Moderator        = "MODERATOR"
)

// Stream tags used by the decentralized flows of §VI.
const (
	TagNLQ     = "NLQ"
	TagSQL     = "SQL"
	TagRows    = "ROWS"
	TagIntent  = "intent"
	TagSummary = "summary"
)

// Suite holds the shared substrate behind the case-study agents.
type Suite struct {
	Ent     *workload.Enterprise
	Model   *llm.Model
	DataReg *registry.DataRegistry
	// DataPlanner drives JobMatcher's retrieval (§V-G: agents themselves
	// invoking the data planner to find and query data sources).
	DataPlanner *dataplan.Planner
	exec        *dataplan.Executor

	// Prepared statements for the suite's templated queries: each agent
	// turn reuses the same SQL shapes, so the parse is paid once here and
	// every invocation runs straight from the plan.
	stmtJobSummary *relational.Stmt // job header for the Summarizer
	stmtAppsByJob  *relational.Stmt // application status histogram
	stmtTopApps    *relational.Stmt // Ranker's score-ordered applicants
}

// NewSuite wires the suite over a generated enterprise, timing its data plans
// on clk. The data registry is populated with the enterprise's sources if
// empty.
func NewSuite(ent *workload.Enterprise, model *llm.Model, dataReg *registry.DataRegistry, clk *clock.Clock) (*Suite, error) {
	if dataReg == nil {
		dataReg = registry.NewDataRegistry()
	}
	if dataReg.Len() == 0 {
		if err := dataReg.ImportRelational("hr", "HR relational database with companies, job postings and applications", "hr-conn", ent.DB); err != nil {
			return nil, err
		}
		if err := dataReg.ImportDocstore("docs", "document store with job seeker profiles and resumes", "docs-conn", ent.Docs); err != nil {
			return nil, err
		}
		if err := dataReg.ImportGraph("taxonomy", "job title taxonomy graph with related roles and categories", "graph-conn", ent.Graph); err != nil {
			return nil, err
		}
		if err := dataReg.RegisterLLMSource("gpt-sim", "general knowledge language model: cities in regions, related job titles, skills", registry.QoSProfile{
			CostPerCall: 0.01, Latency: 50 * time.Millisecond, Accuracy: model.Config().Accuracy,
		}); err != nil {
			return nil, err
		}
	}
	s := &Suite{
		Ent:         ent,
		Model:       model,
		DataReg:     dataReg,
		DataPlanner: dataplan.NewPlanner(dataReg, ent.KB),
	}
	s.exec = dataplan.NewExecutor(dataplan.Sources{
		Relational: ent.DB,
		Docs:       ent.Docs,
		Graphs:     map[string]*graphstore.Graph{"taxonomy": ent.Graph},
		Model:      model,
	}, clk)
	if err := s.prepareStatements(); err != nil {
		return nil, err
	}
	return s, nil
}

// prepareStatements parses the suite's fixed query templates once.
func (s *Suite) prepareStatements() error {
	var err error
	prepare := func(sql string) *relational.Stmt {
		if err != nil {
			return nil
		}
		var st *relational.Stmt
		st, err = s.Ent.DB.Prepare(sql)
		return st
	}
	s.stmtJobSummary = prepare(`SELECT title, city, salary FROM jobs WHERE id = ?`)
	s.stmtAppsByJob = prepare(`SELECT status, COUNT(*) AS n FROM applications WHERE job_id = ? GROUP BY status ORDER BY status`)
	s.stmtTopApps = prepare(`SELECT profile_id, status, score, years FROM applications WHERE job_id = ? ORDER BY score DESC LIMIT 10`)
	if err != nil {
		return fmt.Errorf("hragents: preparing suite statements: %w", err)
	}
	return nil
}

// Specs returns every case-study agent spec.
func (s *Suite) Specs() []registry.AgentSpec {
	return []registry.AgentSpec{
		s.agenticEmployerSpec(),
		s.intentClassifierSpec(),
		s.nl2qSpec(),
		s.sqlExecutorSpec(),
		s.querySummarizerSpec(),
		s.summarizerSpec(),
		s.profilerSpec(),
		s.jobMatcherSpec(),
		s.presenterSpec(),
		s.rankerSpec(),
		s.advisorSpec(),
		s.moderatorSpec(),
	}
}

// RegisterAll registers every spec with the agent registry.
func (s *Suite) RegisterAll(reg *registry.AgentRegistry) error {
	for _, spec := range s.Specs() {
		if err := reg.Register(spec); err != nil {
			return err
		}
	}
	return nil
}

// InstallConstructors registers processor constructors for every agent with
// the factory.
func (s *Suite) InstallConstructors(f *agent.Factory) {
	f.RegisterConstructor(AgenticEmployer, func(registry.AgentSpec) agent.Processor { return s.agenticEmployerProc() })
	f.RegisterConstructor(IntentClassifier, func(registry.AgentSpec) agent.Processor { return s.intentClassifierProc() })
	f.RegisterConstructor(NL2Q, func(registry.AgentSpec) agent.Processor { return s.nl2qProc() })
	f.RegisterConstructor(SQLExecutor, func(registry.AgentSpec) agent.Processor { return s.sqlExecutorProc() })
	f.RegisterConstructor(QuerySummarizer, func(registry.AgentSpec) agent.Processor { return s.querySummarizerProc() })
	f.RegisterConstructor(Summarizer, func(registry.AgentSpec) agent.Processor { return s.summarizerProc() })
	f.RegisterConstructor(Profiler, func(registry.AgentSpec) agent.Processor { return s.profilerProc() })
	f.RegisterConstructor(JobMatcher, func(registry.AgentSpec) agent.Processor { return s.jobMatcherProc() })
	f.RegisterConstructor(Presenter, func(registry.AgentSpec) agent.Processor { return s.presenterProc() })
	f.RegisterConstructor(Ranker, func(registry.AgentSpec) agent.Processor { return s.rankerProc() })
	f.RegisterConstructor(Advisor, func(registry.AgentSpec) agent.Processor { return s.advisorProc() })
	f.RegisterConstructor(Moderator, func(registry.AgentSpec) agent.Processor { return s.moderatorProc() })
}
